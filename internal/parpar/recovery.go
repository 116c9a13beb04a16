package parpar

// recovery.go defines the opt-in self-healing layer's tuning knobs. The
// mechanisms live where the protocols live — control-packet retransmission
// in internal/lanai, reliable daemon messaging in ctrlnet.go, the switch
// watchdog in masterd.go, the heartbeat failure detector and rejoin in
// repair.go — this file only gathers the timer budgets and documents how
// they relate.
//
// The budgets are layered so each mechanism resolves before the one above
// it loses patience:
//
//	NIC phase force-complete  ≈ NICTimeout·(2^(NICRetries+1)-1)   (~3.5 quanta at defaults;
//	                            the release ladder starts up to one copy allowance later)
//	heartbeat node eviction   ≈ (HeartbeatMisses+1)·HeartbeatEvery (~9 quanta at defaults)
//	recovery-liveness auditor   recoveryStallRounds quanta          (20 quanta)
//
// A healthy-but-lossy node therefore always finishes its switch (via
// degraded flush) and acks while its heartbeat still answers; only a node
// whose host cannot answer at all — a fail-stopped CPU — crosses the
// eviction deadline; and the auditor's liveness alarm fires only if even
// eviction failed to unwedge the round. The heartbeat is the only failure
// detector: the switch watchdog re-sends, it never evicts.

import "gangfm/internal/sim"

// Recovery enables and parameterizes the self-healing switch path. Nil on
// Config means fully disabled: no timers are armed, no message is ever
// re-sent, and the cluster behaves byte-identically to the base protocol.
type Recovery struct {
	// NICTimeout is the LANai's first Halt/Ready retransmission deadline,
	// measured from its local phase transition; attempt i fires after
	// NICTimeout<<i (exponential backoff). The first Ready deadline also
	// waits out a peer's buffer copy: the copy model's worst case
	// (core.Manager.MaxCopyCost), capped at one quantum (see
	// Cluster.attach). A peer still copying sends its Ready up to one copy
	// after this node's, and is late, not lost.
	NICTimeout sim.Time
	// NICRetries bounds the per-epoch retransmission attempts of each
	// phase; after the last one the phase completes degraded, without the
	// missing peers' control packets.
	NICRetries int

	// CtrlTimeout is the first re-send deadline for daemon control
	// messages (job load, readiness, start, completion, termination),
	// doubling per attempt.
	CtrlTimeout sim.Time
	// CtrlRetries bounds the re-sends of one control message; an
	// undeliverable message is abandoned afterwards (the switch watchdog
	// and the heartbeat own the consequences).
	CtrlRetries int

	// AckTimeout is the masterd switch watchdog's first deadline: a
	// rotation whose acknowledgements are incomplete re-sends the
	// slot-switch notification to the silent nodes, backing off ×2 up to
	// AckTimeout<<ackBackoffCap and re-sending at that pace until the
	// round closes. The watchdog never evicts: a node that stays silent is
	// the heartbeat's to declare dead.
	AckTimeout sim.Time

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

// ackBackoffCap caps the switch watchdog's exponential backoff: re-sends
// go out after AckTimeout, 2·AckTimeout, 4·AckTimeout, then every
// 4·AckTimeout until the round closes.
const ackBackoffCap = 2

// DefaultRecovery returns the budgets described above for a quantum. The
// NIC timeout is half a quantum: it must exceed the worst-case skew
// between two peers' flush starts — the masterd's switch broadcast is
// serialized at CtrlSerialGap per node plus delivery jitter — or a
// healthy-but-late peer triggers clean-path retransmission. At realistic
// quanta (tens of ms) half a quantum dwarfs that skew; stress configs that
// push the jitter toward the quantum itself should tune this up. The
// heartbeat is patient — one probe per quantum, eight misses — so a node
// paused or cut off for up to seven quanta is never taken for dead; a
// scheduler that wants faster detection (internal/schedd arms a quarter
// quantum and two misses) tightens it.
func DefaultRecovery(quantum sim.Time) Recovery {
	return Recovery{
		NICTimeout:      quantum / 2,
		NICRetries:      2,
		CtrlTimeout:     quantum / 4,
		CtrlRetries:     6,
		AckTimeout:      2 * quantum,
		HeartbeatEvery:  quantum,
		HeartbeatMisses: 8,
	}
}

// validate rejects budgets that cannot work (a zero timeout or interval
// would spin the event loop; negative retries or a zero miss budget make
// the first deadline give up).
func (r *Recovery) validate() error {
	if r.NICTimeout <= 0 || r.CtrlTimeout <= 0 || r.AckTimeout <= 0 || r.HeartbeatEvery <= 0 {
		return errRecoveryTimeout
	}
	if r.NICRetries < 0 || r.CtrlRetries < 0 {
		return errRecoveryRetries
	}
	if r.HeartbeatMisses < 1 {
		return errHeartbeatMisses
	}
	return nil
}

var (
	errRecoveryTimeout = recoveryErr("recovery timeouts must be positive")
	errRecoveryRetries = recoveryErr("recovery retry counts must be non-negative")
	errHeartbeatMisses = recoveryErr("the heartbeat needs a miss budget of at least 1")
)

type recoveryErr string

func (e recoveryErr) Error() string { return "parpar: " + string(e) }
