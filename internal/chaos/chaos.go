// Package chaos is the deterministic fault-injection and invariant-audit
// layer of the reproduction. The paper's central claims (§2.2, §3.2) are
// fragility claims: FM's credit accounting has no retransmission, so a
// single lost packet corrupts flow control forever; the three-stage flush
// protocol assumes every halt of an epoch arrives. This package turns
// those claims into mechanically checked properties:
//
//   - A Plan declares seeded, schedulable fault events — data-packet loss
//     and duplication on the Myrinet fabric, control-message delay/loss on
//     the ParPar control Ethernet, per-node pause/slowdown windows, and
//     mid-switch faults targeting each flush stage (halt loss, ready
//     loss, backing-store corruption).
//   - An Injector compiles the plan into deterministic per-event
//     decisions, each a hash of the seed and the event's own identity
//     (not of the order events arrive in), recording a replayable trace.
//     The same seed and plan always produce byte-identical traces, on one
//     engine or on a sharded group at any worker count.
//   - An Auditor collects invariant-violation reports from hook points in
//     fm, lanai, core, gang and parpar, optionally failing fast, and
//     always carrying the seed needed to replay the run.
//
// The package depends only on internal/sim and internal/myrinet so every
// higher layer (parpar, altsched, the fuzzer) can import it freely.
package chaos

import (
	"fmt"
	"strings"

	"gangfm/internal/sim"
)

// FaultKind enumerates the injectable fault classes.
type FaultKind int

const (
	// DataLoss drops Data packets on the Myrinet fabric with Prob. The
	// paper's §2.2 failure: the packet's credit and its piggybacked
	// refill vanish together.
	DataLoss FaultKind = iota
	// DataDup delivers an extra copy of a Data packet with Prob — the
	// mirror-image fault: credits are *created* out of thin air and the
	// receiver sees fragments it cannot account for.
	DataDup
	// RefillLoss drops explicit Refill packets with Prob: the sender's
	// window never recovers even though all data arrived.
	RefillLoss
	// HaltLoss drops Halt packets with Prob — a stage-1 flush fault. A
	// single lost halt wedges the whole switch round: the protocol has
	// no retransmission for control messages either.
	HaltLoss
	// ReadyLoss drops Ready packets with Prob — a stage-3 release fault.
	ReadyLoss
	// StoreCorrupt flips state in a descheduled job's backing store
	// during the stage-2 buffer copy with Prob per save, on node Node
	// (or every node when Node < 0). The core manager's round-trip
	// digest is expected to catch it at restore time.
	StoreCorrupt
	// CtrlLoss drops masterd/noded control-Ethernet messages with Prob.
	CtrlLoss
	// CtrlDelay adds Delay cycles to control-Ethernet messages with
	// Prob, modelling daemon scheduling hiccups beyond the normal jitter.
	CtrlDelay
	// NodePause blocks node Node's host CPU for the whole [From, Until)
	// window — a process stopped in the debugger, a kernel stall.
	NodePause
	// NodeSlow steals Factor (0..1) of node Node's host CPU over the
	// [From, Until) window, in slices — background daemon interference.
	NodeSlow
	// NodeCrash permanently halts node Node's host CPU from time From: a
	// fail-stop node failure. Unlike NodePause there is no Until — the
	// node never comes back. Without the recovery layer a crash that hits
	// mid-protocol wedges the machine; with recovery enabled the masterd
	// watchdog detects the silent node, evicts it, and kills the jobs
	// spanning it so survivors keep rotating.
	NodeCrash
	// NodeRepair ends an earlier NodeCrash of the same node at time From:
	// the operator swaps the board and the node boots a fresh incarnation
	// (empty memory, new NIC state — nothing of the old incarnation
	// survives). The injector unblocks the host CPU; everything above —
	// re-registration with the masterd, the rotation rejoin, scheduler
	// cache regrowth — is the recovery layer's job. Each repair must be
	// preceded by a crash of its node, and crash/repair events for one
	// node must alternate.
	NodeRepair
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case DataLoss:
		return "data-loss"
	case DataDup:
		return "data-dup"
	case RefillLoss:
		return "refill-loss"
	case HaltLoss:
		return "halt-loss"
	case ReadyLoss:
		return "ready-loss"
	case StoreCorrupt:
		return "store-corrupt"
	case CtrlLoss:
		return "ctrl-loss"
	case CtrlDelay:
		return "ctrl-delay"
	case NodePause:
		return "node-pause"
	case NodeSlow:
		return "node-slow"
	case NodeCrash:
		return "node-crash"
	case NodeRepair:
		return "node-repair"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault is one schedulable fault event.
type Fault struct {
	Kind FaultKind
	// From and Until bound the fault's active window in virtual time.
	// Until == 0 means "open-ended" for probabilistic kinds; the node
	// kinds (NodePause, NodeSlow) require an explicit Until.
	From, Until sim.Time
	// Prob is the per-event probability for the probabilistic kinds.
	Prob float64
	// Node restricts the fault to one node (packet faults match the
	// source node; ctrl and store faults the destination node). A
	// negative Node matches every node.
	Node int
	// Delay is the extra latency CtrlDelay adds per affected message.
	Delay sim.Time
	// Factor is the CPU fraction NodeSlow steals (0..1).
	Factor float64
}

// active reports whether the fault's window covers time t.
func (f *Fault) active(t sim.Time) bool {
	return t >= f.From && (f.Until == 0 || t < f.Until)
}

// matchesNode reports whether the fault applies to the given node.
func (f *Fault) matchesNode(node int) bool {
	return f.Node < 0 || f.Node == node
}

// String formats a fault for plan listings and traces.
func (f Fault) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[%d,", f.Kind, f.From)
	if f.Until == 0 {
		b.WriteString("∞)")
	} else {
		fmt.Fprintf(&b, "%d)", f.Until)
	}
	switch f.Kind {
	case NodePause, NodeCrash, NodeRepair:
		fmt.Fprintf(&b, " node=%d", f.Node)
	case NodeSlow:
		fmt.Fprintf(&b, " node=%d factor=%.2f", f.Node, f.Factor)
	case CtrlDelay:
		fmt.Fprintf(&b, " p=%.3f delay=%d node=%d", f.Prob, f.Delay, f.Node)
	default:
		fmt.Fprintf(&b, " p=%.3f node=%d", f.Prob, f.Node)
	}
	return b.String()
}

// Plan is a complete, seeded fault schedule for one run. The zero Plan
// injects nothing. Plans are values: copy them freely.
type Plan struct {
	// Seed drives every probabilistic decision the injector makes. The
	// same Seed and Faults produce byte-identical injection traces.
	Seed uint64
	// Faults are consulted in order; a fault's index is part of its draw
	// key, so reordering the list changes which events each one hits.
	Faults []Fault
}

// Loss is a convenience constructor for the classic experiment: open-ended
// uniform data-packet loss on every link, the exact scenario of paper
// §2.2 and examples/lossy.
func Loss(seed uint64, prob float64) Plan {
	return Plan{Seed: seed, Faults: []Fault{{Kind: DataLoss, Prob: prob, Node: -1}}}
}

// Validate checks the plan for structural errors.
func (p Plan) Validate() error {
	for i, f := range p.Faults {
		if f.Until != 0 && f.Until <= f.From {
			return fmt.Errorf("chaos: fault %d (%s): empty window [%d,%d)", i, f.Kind, f.From, f.Until)
		}
		switch f.Kind {
		case NodePause, NodeSlow:
			if f.Until == 0 {
				return fmt.Errorf("chaos: fault %d (%s): node faults need an explicit Until", i, f.Kind)
			}
			if f.Node < 0 && f.Kind == NodePause {
				return fmt.Errorf("chaos: fault %d (%s): pause needs a specific node", i, f.Kind)
			}
			if f.Kind == NodeSlow && (f.Factor <= 0 || f.Factor >= 1) {
				return fmt.Errorf("chaos: fault %d (%s): factor %v outside (0,1)", i, f.Kind, f.Factor)
			}
		case NodeCrash:
			if f.Node < 0 {
				return fmt.Errorf("chaos: fault %d (%s): crash needs a specific node", i, f.Kind)
			}
			if f.Until != 0 {
				return fmt.Errorf("chaos: fault %d (%s): crashes are permanent; Until must be unset", i, f.Kind)
			}
		case NodeRepair:
			if f.Node < 0 {
				return fmt.Errorf("chaos: fault %d (%s): repair needs a specific node", i, f.Kind)
			}
			if f.Until != 0 {
				return fmt.Errorf("chaos: fault %d (%s): repairs are instantaneous; Until must be unset", i, f.Kind)
			}
			// A repair only makes sense on a node that is down at From:
			// strictly more crashes than repairs must precede it.
			crashes, repairs := 0, 0
			for _, g := range p.Faults {
				if g.Node != f.Node || g.From >= f.From {
					continue
				}
				switch g.Kind {
				case NodeCrash:
					crashes++
				case NodeRepair:
					repairs++
				}
			}
			if crashes <= repairs {
				return fmt.Errorf("chaos: fault %d (%s): node %d is not down at %d (repairs must follow a crash of the same node)",
					i, f.Kind, f.Node, f.From)
			}
		case DataLoss, DataDup, RefillLoss, HaltLoss, ReadyLoss, StoreCorrupt, CtrlLoss, CtrlDelay:
			if f.Prob < 0 || f.Prob > 1 {
				return fmt.Errorf("chaos: fault %d (%s): probability %v outside [0,1]", i, f.Kind, f.Prob)
			}
			if f.Kind == CtrlDelay && f.Delay <= 0 {
				return fmt.Errorf("chaos: fault %d (%s): non-positive delay", i, f.Kind)
			}
		default:
			return fmt.Errorf("chaos: fault %d: unknown kind %d", i, int(f.Kind))
		}
	}
	return nil
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool { return len(p.Faults) == 0 }

// String lists the plan's faults, one per line.
func (p Plan) String() string {
	if p.Empty() {
		return fmt.Sprintf("plan(seed=%d, no faults)", p.Seed)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "plan(seed=%d)", p.Seed)
	for _, f := range p.Faults {
		b.WriteString("\n  " + f.String())
	}
	return b.String()
}
