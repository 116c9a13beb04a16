package parpar

// recovery.go defines the self-healing layer's budgets. The layer is
// armed exactly when the cluster has a fault injector (a non-empty Chaos
// plan): only an injected fault can lose or stall anything, so a lossless
// run arms no timer and takes the base protocol's path unchanged. The
// mechanisms live where the protocols live — control-packet retransmission
// in internal/lanai, re-sent daemon messages (switch notifications and
// acks included) in ctrlnet.go, the heartbeat failure detector and rejoin
// in repair.go — this file only derives the deadlines and documents how
// they relate.
//
// The budgets are layered so each mechanism resolves before the one above
// it loses patience (D is the control deadline, N the node count):
//
//	daemon message re-sent       after D, 2D, 4D, then every 4D    (launch-path messages give up
//	                             after ctrlRetries re-sends; switch messages never do)
//	NIC phase force-complete     ≈ (D + N·CtlOverhead)·(2^(nicRetries+1)-1)   (~7 D; the release
//	                             ladder starts up to one copy allowance later)
//	heartbeat node eviction      ≈ (HeartbeatMisses+1)·HeartbeatEvery   (~9 quanta at defaults)
//	recovery-liveness auditor    recoveryStallRounds quanta             (20 quanta)
//
// A healthy-but-lossy node therefore always finishes its switch (via
// degraded flush) and acks while its heartbeat still answers; only a node
// whose host cannot answer at all — a fail-stopped CPU — crosses the
// eviction deadline; and the auditor's liveness alarm fires only if even
// eviction failed to unwedge the round. The heartbeat is the only failure
// detector: a re-send chain re-sends, it never evicts.

import (
	"errors"

	"gangfm/internal/lanai"
	"gangfm/internal/sim"
)

// Recovery is the self-healing layer's failure-detector budget. Every
// re-send deadline is derived from the cluster's own parameters (see
// deadlines); only the heartbeat is tunable. The zero value means
// DefaultRecovery of the cluster's quantum.
type Recovery struct {
	// HeartbeatEvery is the masterd's liveness-probe interval: every
	// interval it pings each live node on the ctrl network and the noded
	// replies over the reliable path after a host-CPU charge. The probe
	// runs whenever the chaos plan can fail-stop a node (it contains a
	// NodeCrash); a plan without one has nothing to detect, and the probe
	// stays off so it cannot perturb the run.
	HeartbeatEvery sim.Time
	// HeartbeatMisses is how many consecutive intervals a node may stay
	// silent before the masterd declares it dead and evicts it; detection
	// latency is therefore ≈ (HeartbeatMisses+1)·HeartbeatEvery. The
	// silence budget must outlast every pause, slowdown and loss window a
	// healthy node is expected to survive, or it is evicted as dead.
	HeartbeatMisses int
}

// nicRetries bounds the card's per-epoch retransmission rounds of each
// phase; after the last one the phase completes degraded, without the
// missing peers' control packets.
const nicRetries = 2

// DefaultRecovery returns the heartbeat budget for a quantum: one probe
// per quantum and eight misses, so a node paused or cut off for up to
// seven quanta is never taken for dead. A scheduler that wants faster
// detection (internal/schedd arms a quarter quantum and two misses)
// tightens it.
func DefaultRecovery(quantum sim.Time) Recovery {
	return Recovery{HeartbeatEvery: quantum, HeartbeatMisses: 8}
}

// deadlines returns the first re-send deadlines of the daemon messages
// (ctrl) and of the card's Halt/Ready retransmission (nic): each is the
// worst-case latency of its message on a fault-free run, so the clean path
// never re-sends, and neither depends on the quantum.
//
// ctrl: CtrlBase, every message's fixed cost; CtrlJitter, its largest
// jitter draw; and (Nodes+1)·CtrlSerialGap, a switch notification's serial
// offset (at most Nodes gaps) plus one gap of slack that nic relies on.
//
// nic runs from the card's local transition, after its own serial loop,
// to the last peer's Halt (a Ready also gets the copy allowance, see
// Cluster.attach). ctrl covers the peers' skew, which is below CtrlJitter
// + (Nodes-1)·CtrlSerialGap; Nodes·CtlOverhead covers the latest peer's
// loop (at most Nodes-1 packets) and this card's receive cost. Data queued
// ahead of a Halt gets no term: the card injects data only on a free link,
// so at most one packet (~2 k cycles) precedes a Halt at the port, and
// that plus the receive engine's backlog fits in the CtrlBase +
// 2·CtrlSerialGap that ctrl holds over the skew (at least 60 k cycles).
// With recovery armed on every figure golden, each flush completes at
// least 70 k cycles before its deadline.
func deadlines(cfg Config, card lanai.Config) (ctrl, nic sim.Time) {
	ctrl = cfg.CtrlBase + cfg.CtrlJitter + sim.Time(cfg.Nodes+1)*cfg.CtrlSerialGap
	nic = ctrl + sim.Time(cfg.Nodes)*card.CtlOverhead
	return ctrl, nic
}

// validate rejects budgets that cannot work (a zero interval would spin
// the event loop; a zero miss budget makes the first probe evict).
func (r Recovery) validate() error {
	if r.HeartbeatEvery <= 0 {
		return errHeartbeatEvery
	}
	if r.HeartbeatMisses < 1 {
		return errHeartbeatMisses
	}
	return nil
}

var (
	errHeartbeatEvery  = errors.New("parpar: the heartbeat interval must be positive")
	errHeartbeatMisses = errors.New("parpar: the heartbeat needs a miss budget of at least 1")
)
