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
	eng    *sim.Engine
	base   sim.Time
	jitter sim.Time
	rng    *sim.Rand

	// intercept, when set, is consulted once per message with the
	// destination node (-1 for masterd-bound messages); it returns extra
	// latency to add and whether to drop the message. The chaos
	// injector's CtrlDelay/CtrlLoss faults plug in here, and only they can
	// lose or stall a message.
	intercept func(now sim.Time, dst int) (extra sim.Time, drop bool)

	// timeout is the first re-send deadline of the reliable path (see
	// deadlines), resends pools its chain records, and resent counts the
	// copies the chains re-sent.
	timeout sim.Time
	resends []*resend
	resent  uint64
}

func newCtrlNet(eng *sim.Engine, base, jitter sim.Time, rng *sim.Rand) *ctrlNet {
	return &ctrlNet{eng: eng, base: base, jitter: jitter, rng: rng}
}

// delay samples one message latency.
func (c *ctrlNet) delay() sim.Time {
	d := c.base
	if c.jitter > 0 {
		d += sim.Time(c.rng.Uint64() % uint64(c.jitter))
	}
	return d
}

// deliver schedules fn, a message to node (the masterd for node < 0), to
// run after d, subject to the intercept.
func (c *ctrlNet) deliver(node int, d sim.Time, fn func()) {
	c.deliverArg(node, d, sim.Call, fn)
}

// deliverArg is deliver for closure-free callers: fn receives
// arg at delivery. The hot per-round scheduler traffic uses this with
// pooled argument records so a switch round allocates no closures.
func (c *ctrlNet) deliverArg(node int, d sim.Time, fn func(any), arg any) {
	if c.intercept != nil {
		extra, drop := c.intercept(c.eng.Now(), node)
		if drop {
			return
		}
		d += extra
	}
	c.eng.ScheduleArg(d, fn, arg)
}

// reliable is one daemon message on the re-send path. The daemons' real
// protocol would carry sequence numbers and acks; in the simulation
// received reads the receiver's state directly, which is exactly the
// information an ack would carry.
type reliable interface {
	// received reports whether the message has done its work at the
	// receiver (or no longer matters there).
	received() bool
	// send delivers one copy of the message after d cycles.
	send(d sim.Time)
}

// pooled is a reliable message drawn from a pool: retire hands it back
// once its chain has ended.
type pooled interface{ retire() }

// retire ends m's chain, returning a pooled message to its pool.
func retire(m reliable) {
	if p, ok := m.(pooled); ok {
		p.retire()
	}
}

// Re-send chain budgets. A chain's re-sends fire D, 2D, 4D, then every 4D
// after the previous one (D the control deadline, see deadlines): ×2
// backoff up to backoffCap doublings. A bounded chain gives up after
// ctrlRetries re-sends; the switch messages' chains never do.
const (
	backoffCap  = 2
	ctrlRetries = 6
)

// resend is one message's pending re-send chain. The records are pooled.
type resend struct {
	c       *ctrlNet
	m       reliable
	attempt int // re-sends so far
	retries int // the chain's budget; negative means until received
}

// sendReliable sends m after one control-message latency plus first, then
// re-sends it, each copy after its own sampled latency, until it is
// received — or, when retries >= 0, until retries re-sends are spent: an
// undeliverable launch or membership message is abandoned, and the
// heartbeat owns what happens to a permanently unreachable node. Without
// an intercept nothing can lose or delay the copy, so no chain is armed.
func (c *ctrlNet) sendReliable(first sim.Time, retries int, m reliable) {
	m.send(c.delay() + first)
	if c.intercept == nil {
		retire(m)
		return
	}
	var r *resend
	if ln := len(c.resends); ln > 0 {
		r, c.resends = c.resends[ln-1], c.resends[:ln-1]
	} else {
		r = &resend{c: c}
	}
	r.m, r.attempt, r.retries = m, 0, retries
	c.eng.ScheduleArg(c.timeout, resendFn, r)
}

func resendFn(a any) {
	r := a.(*resend)
	c := r.c
	if r.m.received() || r.attempt == r.retries {
		retire(r.m)
		r.m = nil
		c.resends = append(c.resends, r)
		return
	}
	r.m.send(c.delay())
	c.resent++
	r.attempt++
	c.eng.ScheduleArg(c.timeout<<min(r.attempt, backoffCap), resendFn, r)
}

// funcMsg is any other daemon message (launch path, membership,
// heartbeat, rejoin): fn runs at dst (the masterd for dst < 0), and done
// reports its receipt.
type funcMsg struct {
	c    *ctrlNet
	dst  int
	done func() bool
	fn   func()
}

func (f *funcMsg) received() bool  { return f.done() }
func (f *funcMsg) send(d sim.Time) { f.c.deliver(f.dst, d, f.fn) }
