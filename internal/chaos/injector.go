package chaos

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"gangfm/internal/myrinet"
	"gangfm/internal/sim"
)

// traceCap bounds the injection trace so pathological plans cannot eat the
// heap; overflow is counted, not silently dropped.
const traceCap = 10_000

// slowSliceTarget bounds how many CPU-steal slices a NodeSlow fault
// schedules, so wide windows stay cheap.
const slowSliceTarget = 2000

// minSlowSlice is the smallest steal-slice period, in cycles (0.25 ms).
const minSlowSlice = 50_000

// Injector compiles a Plan into deterministic fault decisions. It
// implements myrinet.Injector for packet faults; the parpar cluster also
// wires CtrlMessage into its control network, ArmNode onto each host CPU,
// and StoreHook into each node's buffer-switch manager.
//
// Every decision hashes the plan seed, the fault's index and the identity
// of the event it judges (see draw), never the order events arrive in, so
// a run replays exactly from (cluster config, plan) on one engine or on a
// sharded group at any worker count. Packet and store hooks run on the
// lane that owns the node; the trace and counts are shared under mu.
type Injector struct {
	eng  *sim.Engine
	plan Plan

	mu       sync.Mutex
	trace    []string
	recorded uint64 // records ever made; trace keeps the traceCap first
	counts   map[FaultKind]uint64
	// presented counts, per (fault kind, node), the events that kind's
	// draws are keyed on: control messages per destination, backing-store
	// saves per node.
	presented map[[2]int]uint64
}

// NewInjector builds an injector for the plan. Invalid plans panic: a plan
// is test/driver input, and silently skipping faults would make "no
// violations" meaningless. eng is the lane CPU faults are scheduled on.
func NewInjector(eng *sim.Engine, plan Plan) *Injector {
	if err := plan.Validate(); err != nil {
		panic(err)
	}
	return &Injector{
		eng:       eng,
		plan:      plan,
		counts:    make(map[FaultKind]uint64),
		presented: make(map[[2]int]uint64),
	}
}

// next returns how many events of the kind were presented for node before
// this one, and counts this one.
func (in *Injector) next(kind FaultKind, node int) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	k := [2]int{int(kind), node}
	n := in.presented[k]
	in.presented[k] = n + 1
	return n
}

// Counts returns how many times each fault kind fired.
func (in *Injector) Counts() map[FaultKind]uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[FaultKind]uint64, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

// Trace returns the injection trace: one line per fired fault, sorted.
// Lines lead with the fault time in a fixed-width column, so sorted is
// time order (below 10^12 cycles) and, among equal times, text order; lines
// that tie are identical, so the order does not depend on which lane
// reported first. Identical (seed, plan, workload) runs yield identical
// traces — the determinism contract the chaos tests pin down.
func (in *Injector) Trace() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.compact()
	return slices.Clone(in.trace)
}

// TraceString joins the trace, noting any overflow.
func (in *Injector) TraceString() string {
	s := strings.Join(in.Trace(), "\n")
	in.mu.Lock()
	defer in.mu.Unlock()
	if over := in.recorded - uint64(len(in.trace)); over > 0 {
		s += fmt.Sprintf("\n... %d further injections not recorded", over)
	}
	return s
}

// record notes one fired fault at time at (the reporting lane's clock).
func (in *Injector) record(at sim.Time, kind FaultKind, format string, args ...any) {
	line := fmt.Sprintf("%12d %-13s %s", at, kind, fmt.Sprintf(format, args...))
	in.mu.Lock()
	defer in.mu.Unlock()
	in.counts[kind]++
	in.recorded++
	in.trace = append(in.trace, line)
	if len(in.trace) >= 2*traceCap {
		in.compact()
	}
}

// compact sorts the trace canonically and keeps the traceCap first
// records. Dropping only records with traceCap smaller ones keeps the
// retained set a function of the run, not of the lanes' report order.
func (in *Injector) compact() {
	slices.Sort(in.trace)
	if len(in.trace) > traceCap {
		in.trace = in.trace[:traceCap]
	}
}

// draw is the decision source: 64 random bits keyed by the plan seed, the
// fault's index in the plan, a node, and that node's sequence key (a, b).
func (in *Injector) draw(fault, node int, a, b uint64) uint64 {
	return sim.Hash(in.plan.Seed, uint64(fault), uint64(node), a, b)
}

// hit reports whether a fault of probability p fires on draw h.
func hit(p float64, h uint64) bool {
	return p >= 1 || (p > 0 && sim.Unit(h) < p)
}

// packetKind maps a packet type to the fault kinds that can affect it.
func packetKinds(t myrinet.PacketType) (drop FaultKind, canDup bool, ok bool) {
	switch t {
	case myrinet.Data:
		return DataLoss, true, true
	case myrinet.Refill:
		return RefillLoss, false, true
	case myrinet.Halt:
		return HaltLoss, false, true
	case myrinet.Ready:
		return ReadyLoss, false, true
	default:
		return 0, false, false
	}
}

// Packet decides the fate of one packet at injection time (implements
// myrinet.Injector). The network has stamped the packet's per-route Seq,
// so (Src, Dst, Seq) names it uniquely and every active matching fault
// draws on that key.
func (in *Injector) Packet(now sim.Time, p *myrinet.Packet) myrinet.Verdict {
	dropKind, canDup, ok := packetKinds(p.Type)
	if !ok {
		return myrinet.Verdict{}
	}
	var v myrinet.Verdict
	for i := range in.plan.Faults {
		f := &in.plan.Faults[i]
		if !f.active(now) || !f.matchesNode(int(p.Src)) {
			continue
		}
		switch f.Kind {
		case dropKind:
			if !v.Drop && hit(f.Prob, in.draw(i, int(p.Src), uint64(p.Dst), p.Seq)) {
				v.Drop = true
				in.record(now, f.Kind, "%s", p)
			}
		case DataDup:
			if canDup && !v.Duplicate && hit(f.Prob, in.draw(i, int(p.Src), uint64(p.Dst), p.Seq)) {
				v.Duplicate = true
				in.record(now, f.Kind, "%s", p)
			}
		}
	}
	if v.Drop {
		// A packet cannot be both lost and duplicated.
		v.Duplicate = false
	}
	return v
}

// CtrlMessage decides the fate of one control-Ethernet message destined
// for node dst (dst < 0 for masterd-bound messages): extra latency to add
// and whether to drop it outright. The key is (dst, messages presented for
// dst so far); the control network presents every message from its own
// serialized lane, so that count is the same at any sharding.
func (in *Injector) CtrlMessage(now sim.Time, dst int) (extra sim.Time, drop bool) {
	n := in.next(CtrlLoss, dst)
	for i := range in.plan.Faults {
		f := &in.plan.Faults[i]
		if !f.active(now) || !f.matchesNode(dst) {
			continue
		}
		switch f.Kind {
		case CtrlLoss:
			if !drop && hit(f.Prob, in.draw(i, dst, n, 0)) {
				drop = true
				in.record(now, CtrlLoss, "ctrl message to node %d", dst)
			}
		case CtrlDelay:
			if hit(f.Prob, in.draw(i, dst, n, 0)) {
				extra += f.Delay
				in.record(now, CtrlDelay, "ctrl message to node %d +%d cycles", dst, f.Delay)
			}
		}
	}
	if drop {
		extra = 0
	}
	return extra, drop
}

// crashHorizon is the "never" a NodeCrash blocks the CPU until: far past
// any reachable virtual time yet small enough that freeAt arithmetic
// cannot overflow.
const crashHorizon = sim.Time(1) << 62

// ArmNode schedules the plan's CPU faults (NodePause, NodeSlow,
// NodeCrash) against one node's host CPU. Called once per node at
// cluster construction.
func (in *Injector) ArmNode(node int, cpu *sim.Resource) {
	for i := range in.plan.Faults {
		f := in.plan.Faults[i]
		if !f.matchesNode(node) {
			continue
		}
		switch f.Kind {
		case NodePause:
			until := f.Until
			in.eng.ScheduleAt(f.From, func() {
				in.record(in.eng.Now(), NodePause, "node %d CPU blocked until %d", node, until)
				cpu.Block(until)
			})
		case NodeCrash:
			in.eng.ScheduleAt(f.From, func() {
				in.record(in.eng.Now(), NodeCrash, "node %d crashed (fail-stop)", node)
				cpu.Block(crashHorizon)
			})
		case NodeRepair:
			// The injector only ends the hardware fault (the CPU block);
			// the cluster schedules the reboot/rejoin at the same instant,
			// after this event in FIFO order, so the fresh incarnation
			// boots on an unblocked CPU.
			in.eng.ScheduleAt(f.From, func() {
				in.record(in.eng.Now(), NodeRepair, "node %d repaired (fresh incarnation boots)", node)
				cpu.Unblock()
			})
		case NodeSlow:
			period := (f.Until - f.From) / slowSliceTarget
			if period < minSlowSlice {
				period = minSlowSlice
			}
			steal := sim.Time(float64(period) * f.Factor)
			if steal == 0 {
				continue
			}
			in.eng.ScheduleAt(f.From, func() {
				in.record(in.eng.Now(), NodeSlow, "node %d losing %.0f%% CPU until %d", node, f.Factor*100, f.Until)
			})
			for t := f.From; t < f.Until; t += period {
				t := t
				in.eng.ScheduleAt(t, func() { cpu.Block(t + steal) })
			}
		}
	}
}

// CPUFaultActive reports whether a NodePause, NodeSlow or NodeCrash
// window covers the node at time t. The delivery-stall auditor uses it to
// excuse progress freezes that a CPU fault fully explains — a paused host
// is slow, not protocol-broken. A crash is active from its From until the
// earliest NodeRepair of the same node after it (forever when the plan
// holds none).
func (in *Injector) CPUFaultActive(node int, t sim.Time) bool {
	for i := range in.plan.Faults {
		f := &in.plan.Faults[i]
		switch f.Kind {
		case NodePause, NodeSlow:
			if f.active(t) && f.matchesNode(node) {
				return true
			}
		case NodeCrash:
			if f.active(t) && f.matchesNode(node) && !in.repairedBetween(f.Node, f.From, t) {
				return true
			}
		}
	}
	return false
}

// repairedBetween reports whether the plan repairs the node at some time in
// (from, t] — i.e. whether a crash at from is over by t.
func (in *Injector) repairedBetween(node int, from, t sim.Time) bool {
	for i := range in.plan.Faults {
		f := &in.plan.Faults[i]
		if f.Kind == NodeRepair && f.Node == node && f.From > from && f.From <= t {
			return true
		}
	}
	return false
}

// StoreHook returns the backing-store corruption hook for one node, or nil
// when the plan has no StoreCorrupt fault for it. The hook is invoked by
// the core manager right after a descheduled job's queues are saved (and
// after the integrity digest is taken); it mutates the parked packets in
// place — the digest check at restore time is expected to report it. eng
// is the node's lane, whose clock stamps the trace. Each save is keyed by
// (node, saves on the node so far), and the same draw picks the victim.
func (in *Injector) StoreHook(node int, eng *sim.Engine) func(job myrinet.JobID, send, recv []*myrinet.Packet) {
	var relevant []int
	for i, f := range in.plan.Faults {
		if f.Kind == StoreCorrupt && f.matchesNode(node) {
			relevant = append(relevant, i)
		}
	}
	if len(relevant) == 0 {
		return nil
	}
	return func(job myrinet.JobID, send, recv []*myrinet.Packet) {
		now := eng.Now()
		save := in.next(StoreCorrupt, node)
		for _, i := range relevant {
			f := &in.plan.Faults[i]
			if !f.active(now) {
				continue
			}
			h := in.draw(i, node, save, 0)
			if !hit(f.Prob, h) {
				continue
			}
			pkts := make([]*myrinet.Packet, 0, len(send)+len(recv))
			pkts = append(pkts, send...)
			pkts = append(pkts, recv...)
			if len(pkts) == 0 {
				continue
			}
			// Corrupt a field the protocol itself never re-reads (Seq is
			// re-stamped by the network on send), so the fault is crash-
			// free and detectable only by the integrity digest — exactly
			// the silent-corruption scenario the digest exists for.
			victim := pkts[h%uint64(len(pkts))]
			victim.Seq ^= 0xDEAD
			in.record(now, StoreCorrupt, "node %d job %d packet {%s}", node, job, victim)
		}
	}
}
