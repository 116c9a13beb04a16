// Package parpar assembles the full cluster of the paper: compute nodes
// (host CPU + LANai card + noded daemon), the masterd manager host, the
// Myrinet data network, and the Ethernet control network. It implements
// the job-launch protocol of Figure 2 and drives the gang-scheduling
// rotation that triggers the three-stage buffer switch.
package parpar

import (
	"gangfm/internal/sim"
)

// ctrlNet models the 10 Mb/s switched Ethernet control network plus the
// daemon wakeup costs at each end: a message arrives after a base latency
// plus a uniformly distributed jitter. The jitter is what desynchronizes
// the nodeds at a context switch and makes the halt stage grow with the
// node count (Figure 7).
type ctrlNet struct {
	// eng is the lane the control network itself lives on: the single
	// engine of an unsharded cluster, or a shard group's global lane. All
	// latency sampling happens here, so the jitter RNG — a sequential
	// machine whose draw order must be deterministic — is consulted only
	// in serialized context.
	eng    *sim.Engine
	base   sim.Time
	jitter sim.Time
	rng    *sim.Rand

	// engOf, when set, maps a node to the shard engine owning it;
	// deliveries addressed to a node are inserted there so the callback
	// runs in the node's shard. Nil means everything runs on eng.
	engOf func(node int) *sim.Engine

	// intercept, when set, is consulted once per message with the
	// destination node (-1 for masterd-bound or unaddressed messages); it
	// returns extra latency to add and whether to drop the message. The
	// chaos injector's CtrlDelay/CtrlLoss faults plug in here.
	intercept func(now sim.Time, dst int) (extra sim.Time, drop bool)
}

func newCtrlNet(eng *sim.Engine, base, jitter sim.Time, rng *sim.Rand) *ctrlNet {
	return &ctrlNet{eng: eng, base: base, jitter: jitter, rng: rng}
}

// delay samples one message latency. Call only from eng's context (hop
// gets a node-side caller there first).
func (c *ctrlNet) delay() sim.Time {
	d := c.base
	if c.jitter > 0 {
		d += sim.Time(c.rng.Uint64() % uint64(c.jitter))
	}
	return d
}

// hop runs fn in the control network's own context: inline when the caller
// already runs there (the unsharded engine, or the global lane), otherwise
// posted to the control lane at the caller's current time (daemon-to-
// masterd requests carry no modeled latency of their own; the sampled
// delivery delay is the whole cost, exactly as in the inline case).
func (c *ctrlNet) hop(src *sim.Engine, fn func()) {
	if src == c.eng {
		fn()
		return
	}
	src.CrossAt(c.eng, src.Now(), fn)
}

// engFor returns the engine a delivery for the given node runs on.
func (c *ctrlNet) engFor(node int) *sim.Engine {
	if node >= 0 && c.engOf != nil {
		return c.engOf(node)
	}
	return c.eng
}

// deliver schedules one message to dst after d, subject to the intercept.
// Call only from eng's context.
func (c *ctrlNet) deliver(dst int, d sim.Time, fn func()) {
	c.deliverRouted(dst, dst, d, fn)
}

// deliverRouted is deliver with the fault-layer presentation (seen)
// decoupled from the execution site (node): the base-protocol daemons send
// unaddressed messages (seen = -1), yet the actions those messages trigger
// belong to a specific node's shard.
func (c *ctrlNet) deliverRouted(seen, node int, d sim.Time, fn func()) {
	if c.intercept != nil {
		extra, drop := c.intercept(c.eng.Now(), seen)
		if drop {
			return
		}
		d += extra
	}
	c.eng.CrossAt(c.engFor(node), c.eng.Now()+d, fn)
}

// deliverRoutedArg is deliverRouted for closure-free callers: fn receives
// arg at delivery. The hot per-round scheduler traffic uses this with
// pooled argument records so a switch round allocates no closures.
func (c *ctrlNet) deliverRoutedArg(seen, node int, d sim.Time, fn func(any), arg any) {
	if c.intercept != nil {
		extra, drop := c.intercept(c.eng.Now(), seen)
		if drop {
			return
		}
		d += extra
	}
	c.eng.CrossArgAt(c.engFor(node), c.eng.Now()+d, fn, arg)
}

// send delivers fn after one control-message latency. src is the engine
// the caller is executing on.
func (c *ctrlNet) send(src *sim.Engine, fn func()) {
	c.hop(src, func() { c.deliverRouted(-1, -1, c.delay(), fn) })
}

// sendRouted is send for the base protocol's unaddressed daemon messages
// whose handler nevertheless acts on one node: the intercept still sees
// dst = -1 (identical fault presentation), but fn runs on node's shard.
func (c *ctrlNet) sendRouted(src *sim.Engine, node int, fn func()) {
	c.hop(src, func() { c.deliverRouted(-1, node, c.delay(), fn) })
}

// sendTo delivers fn to a specific node after one control-message latency,
// so node-targeted faults apply.
func (c *ctrlNet) sendTo(src *sim.Engine, dst int, fn func()) {
	c.hop(src, func() { c.deliverRouted(dst, dst, c.delay(), fn) })
}

// sendReliable delivers fn like send and then, while done keeps reporting
// false, re-delivers it with exponential backoff: re-send k fires
// timeout<<k after the previous one, for at most retries re-sends. The
// daemons' real protocol would carry sequence numbers and acks; in the
// simulation the done predicate reads the receiver's state directly, which
// is exactly the information an ack would carry. A message still
// undelivered after the last re-send is abandoned — the switch watchdog
// and the eviction path own what happens to a permanently unreachable
// node.
func (c *ctrlNet) sendReliable(src *sim.Engine, dst int, timeout sim.Time, retries int, done func() bool, fn func()) {
	c.hop(src, func() {
		c.deliverOnce(dst, fn)
		c.armResend(dst, timeout, retries, 0, done, fn)
	})
}

// deliverOnce and armResend run in eng's context (sendReliable hops
// there); the retransmission timers and the done-predicate checks stay on
// that lane, where reading receiver state is barrier-safe.
func (c *ctrlNet) deliverOnce(dst int, fn func()) {
	if dst < 0 {
		c.deliverRouted(-1, -1, c.delay(), fn)
	} else {
		c.deliverRouted(dst, dst, c.delay(), fn)
	}
}

func (c *ctrlNet) armResend(dst int, timeout sim.Time, retries, attempt int, done func() bool, fn func()) {
	if attempt >= retries {
		return
	}
	c.eng.Schedule(timeout<<attempt, func() {
		if done() {
			return
		}
		c.deliverOnce(dst, fn)
		c.armResend(dst, timeout, retries, attempt+1, done, fn)
	})
}

// broadcast delivers fn(i) to each of n destinations, each with its own
// independently sampled latency — the multicast preloading of [Kavas et
// al. 2001] reaches all nodes in one send, but per-node delivery and
// daemon scheduling still jitter.
func (c *ctrlNet) broadcast(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		i := i
		c.deliver(i, c.delay(), func() { fn(i) })
	}
}

// serialBroadcast delivers fn(i) to each destination with a cumulative
// per-destination gap on top of the sampled latency: the masterd's
// slot-switch notifications go out as consecutive unicasts on the 10 Mb/s
// control Ethernet, so the skew between the first and last noded grows
// with the machine size. This skew is what makes the halt stage and the
// receive-buffer occupancy grow with the node count (Figures 7 and 8):
// early-notified nodes stop and keep absorbing traffic from nodes that
// have not yet heard.
func (c *ctrlNet) serialBroadcast(n int, gap sim.Time, fn func(i int)) {
	for i := 0; i < n; i++ {
		i := i
		c.deliver(i, c.delay()+sim.Time(i+1)*gap, func() { fn(i) })
	}
}
