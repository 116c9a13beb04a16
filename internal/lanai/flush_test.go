package lanai

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"gangfm/internal/myrinet"
)

func TestPhaseTrackerBasic(t *testing.T) {
	pt := newPhaseTracker(3)
	done := false
	pt.LocalTransition(1, func() { done = true })
	if done {
		t.Fatal("completed before any remote arrival")
	}
	pt.Arrive(1, 1)
	pt.Arrive(1, 2)
	if done {
		t.Fatal("completed with only 2 of 3 remote halts")
	}
	pt.Arrive(1, 3)
	if !done {
		t.Fatal("did not complete at H,p")
	}
	if !pt.Done(1) {
		t.Fatal("Done(1) should be true")
	}
}

func TestPhaseTrackerRemoteFirst(t *testing.T) {
	// Figure 3: an arriving halt may precede the local halt ("a certain
	// LANai may receive a halt message before it was notified by its
	// noded").
	pt := newPhaseTracker(2)
	pt.Arrive(5, 1)
	pt.Arrive(5, 2)
	done := false
	pt.LocalTransition(5, func() { done = true })
	if !done {
		t.Fatal("local transition after all remotes should complete immediately")
	}
}

func TestPhaseTrackerEpochIsolation(t *testing.T) {
	pt := newPhaseTracker(1)
	done1, done2 := false, false
	pt.LocalTransition(1, func() { done1 = true })
	// A halt for a *future* epoch must not complete epoch 1.
	pt.Arrive(2, 1)
	if done1 {
		t.Fatal("epoch-2 arrival completed epoch 1")
	}
	pt.Arrive(1, 1)
	if !done1 {
		t.Fatal("epoch 1 should have completed")
	}
	pt.LocalTransition(2, func() { done2 = true })
	if !done2 {
		t.Fatal("epoch 2 should complete from the early arrival")
	}
}

func TestPhaseTrackerZeroPeers(t *testing.T) {
	pt := newPhaseTracker(0)
	done := false
	pt.LocalTransition(0, func() { done = true })
	if !done {
		t.Fatal("single-node flush should complete on local transition")
	}
}

func TestPhaseTrackerState(t *testing.T) {
	pt := newPhaseTracker(4)
	if l, r := pt.State(7); l || r != 0 {
		t.Fatal("initial state should be S,0")
	}
	pt.Arrive(7, 1)
	pt.Arrive(7, 2)
	if l, r := pt.State(7); l || r != 2 {
		t.Fatalf("state after 2 arrivals = (%v,%d), want (false,2)", l, r)
	}
	pt.LocalTransition(7, nil)
	if l, r := pt.State(7); !l || r != 2 {
		t.Fatalf("state after lh = (%v,%d), want (true,2)", l, r)
	}
}

func TestPhaseTrackerDuplicateLocalPanics(t *testing.T) {
	pt := newPhaseTracker(2)
	pt.LocalTransition(1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate local transition")
		}
	}()
	pt.LocalTransition(1, nil)
}

func TestPhaseTrackerDuplicateArrivalIsStale(t *testing.T) {
	// A retransmitted halt from a peer already counted must not advance
	// the state machine; Arrive reports it stale instead.
	pt := newPhaseTracker(2)
	if !pt.Arrive(1, 1) {
		t.Fatal("first arrival from peer 1 should be fresh")
	}
	if pt.Arrive(1, 1) {
		t.Fatal("duplicate arrival from peer 1 should be stale")
	}
	if l, r := pt.State(1); l || r != 1 {
		t.Fatalf("state after duplicate = (%v,%d), want (false,1)", l, r)
	}
	done := false
	pt.LocalTransition(1, func() { done = true })
	pt.Arrive(1, 2)
	if !done {
		t.Fatal("fresh arrival from peer 2 should complete the phase")
	}
	// Anything for a completed epoch is stale, fresh peer or not.
	if pt.Arrive(1, 1) || pt.Arrive(1, 2) {
		t.Fatal("arrivals for a completed epoch should be stale")
	}
}

func TestPhaseTrackerForceComplete(t *testing.T) {
	pt := newPhaseTracker(2)
	done := false
	// Before the local transition, force-complete must refuse: the node
	// has not even halted itself yet.
	if pt.ForceComplete(3) {
		t.Fatal("force-complete before local transition should refuse")
	}
	pt.LocalTransition(3, func() { done = true })
	pt.Arrive(3, 1)
	if !pt.ForceComplete(3) {
		t.Fatal("force-complete of an open epoch should succeed")
	}
	if !done || !pt.Done(3) {
		t.Fatal("force-complete should fire the completion callback")
	}
	if pt.ForceComplete(3) {
		t.Fatal("force-complete of a done epoch should be a no-op")
	}
	// The straggler that force-complete stopped waiting for is stale.
	if pt.Arrive(3, 2) {
		t.Fatal("post-force arrival should be stale")
	}
}

func TestPhaseTrackerEvict(t *testing.T) {
	pt := newPhaseTracker(3)
	done := false
	pt.LocalTransition(1, func() { done = true })
	pt.Arrive(1, 1)
	pt.Arrive(1, 2)
	// Evicting the only unheard peer completes the open epoch.
	pt.Evict(3)
	if !done {
		t.Fatal("eviction of the last missing peer should complete the phase")
	}
	if !pt.Evicted(3) || pt.Evicted(2) {
		t.Fatal("eviction bookkeeping wrong")
	}
	// The next epoch expects only the two survivors.
	done = false
	pt.LocalTransition(2, func() { done = true })
	if pt.Arrive(2, 3) {
		t.Fatal("arrival from an evicted peer should be stale")
	}
	pt.Arrive(2, 1)
	pt.Arrive(2, 2)
	if !done {
		t.Fatal("survivor-only epoch should complete without the evicted peer")
	}
	// Eviction is idempotent: peers must not be double-decremented.
	pt.Evict(3)
	done = false
	pt.LocalTransition(4, func() { done = true })
	pt.Arrive(4, 1)
	if done {
		t.Fatal("epoch completed with one of two surviving peers missing")
	}
	pt.Arrive(4, 2)
	if !done {
		t.Fatal("epoch should complete with both survivors heard")
	}
}

func TestPhaseTrackerEvictAlreadyHeardPeer(t *testing.T) {
	// Evicting a peer whose message was already counted must re-evaluate
	// the epoch with that arrival discounted — not complete early.
	pt := newPhaseTracker(2)
	done := false
	pt.LocalTransition(1, func() { done = true })
	pt.Arrive(1, 1)
	pt.Evict(1)
	if done {
		t.Fatal("evicting the already-heard peer must discount its arrival, not complete the phase")
	}
	pt.Arrive(1, 2)
	if !done {
		t.Fatal("the surviving peer's arrival should complete the phase")
	}
}

func TestPhaseTrackerTransitioned(t *testing.T) {
	pt := newPhaseTracker(1)
	if pt.Transitioned(9) {
		t.Fatal("untouched epoch should not be transitioned")
	}
	pt.LocalTransition(9, nil)
	if !pt.Transitioned(9) {
		t.Fatal("open epoch after local transition should be transitioned")
	}
	pt.Arrive(9, 1)
	if !pt.Done(9) || !pt.Transitioned(9) {
		t.Fatal("completed epoch should remain transitioned")
	}
}

// Property (Figure 3): for ANY interleaving of the local halt and the p-1
// arriving halts, the tracker completes exactly once, and only after all
// transitions have happened.
func TestFlushAllInterleavingsProperty(t *testing.T) {
	prop := func(seed int64, peers8 uint8) bool {
		peers := int(peers8%8) + 1
		// Build the transition multiset: one "lh" + peers "ah".
		events := make([]int, 0, peers+1)
		events = append(events, -1) // local halt
		for i := 0; i < peers; i++ {
			events = append(events, i)
		}
		r := rand.New(rand.NewSource(seed))
		r.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })

		pt := newPhaseTracker(peers)
		completions := 0
		for i, ev := range events {
			last := i == len(events)-1
			if ev == -1 {
				pt.LocalTransition(0, func() { completions++ })
			} else {
				pt.Arrive(0, myrinet.NodeID(ev+1))
			}
			if !last && completions != 0 {
				return false // completed early
			}
		}
		return completions == 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// refTracker is the map-based tracker the dense one replaced, kept as a
// reference model: it recomputes the live-heard count by walking every
// heard peer, so it is obviously right and O(p) per arrival.
type refTracker struct {
	peers   int
	heard   map[uint64]map[myrinet.NodeID]bool
	local   map[uint64]bool
	onDone  map[uint64]func()
	evicted map[myrinet.NodeID]bool
	doneLo  uint64
	doneAny bool
	doneEx  map[uint64]bool
}

func newRefTracker(peers int) *refTracker {
	return &refTracker{
		peers:   peers,
		heard:   make(map[uint64]map[myrinet.NodeID]bool),
		local:   make(map[uint64]bool),
		onDone:  make(map[uint64]func()),
		evicted: make(map[myrinet.NodeID]bool),
		doneEx:  make(map[uint64]bool),
	}
}

func (t *refTracker) LocalTransition(epoch uint64, onDone func()) {
	if t.local[epoch] {
		panic("lanai: duplicate local phase transition for epoch")
	}
	t.local[epoch] = true
	t.onDone[epoch] = onDone
	t.check(epoch)
}

func (t *refTracker) Arrive(epoch uint64, from myrinet.NodeID) bool {
	if t.Done(epoch) || t.evicted[from] {
		return false
	}
	set := t.heard[epoch]
	if set == nil {
		set = make(map[myrinet.NodeID]bool)
		t.heard[epoch] = set
	}
	if set[from] {
		return false
	}
	set[from] = true
	t.check(epoch)
	return true
}

func (t *refTracker) Heard(epoch uint64, from myrinet.NodeID) bool { return t.heard[epoch][from] }

func (t *refTracker) liveHeard(epoch uint64) int {
	n := 0
	for from := range t.heard[epoch] {
		if !t.evicted[from] {
			n++
		}
	}
	return n
}

func (t *refTracker) State(epoch uint64) (bool, int) { return t.local[epoch], t.liveHeard(epoch) }

func (t *refTracker) Done(epoch uint64) bool {
	return (t.doneAny && epoch < t.doneLo) || t.doneEx[epoch]
}

func (t *refTracker) Transitioned(epoch uint64) bool { return t.Done(epoch) || t.local[epoch] }

func (t *refTracker) ForceComplete(epoch uint64) bool {
	if t.Done(epoch) || !t.local[epoch] {
		return false
	}
	t.complete(epoch)
	return true
}

func (t *refTracker) Evict(peer myrinet.NodeID) {
	if t.evicted[peer] {
		return
	}
	t.evicted[peer] = true
	t.peers--
	open := make([]uint64, 0, len(t.onDone))
	for e := range t.onDone {
		open = append(open, e)
	}
	sort.Slice(open, func(i, j int) bool { return open[i] < open[j] })
	for _, e := range open {
		t.check(e)
	}
}

func (t *refTracker) Evicted(peer myrinet.NodeID) bool { return t.evicted[peer] }

func (t *refTracker) Join(peer myrinet.NodeID) {
	if !t.evicted[peer] {
		return
	}
	delete(t.evicted, peer)
	t.peers++
}

func (t *refTracker) check(epoch uint64) {
	if t.Done(epoch) || !t.local[epoch] || t.liveHeard(epoch) < t.peers {
		return
	}
	t.complete(epoch)
}

func (t *refTracker) complete(epoch uint64) {
	if !t.doneAny {
		t.doneAny = true
		t.doneLo = epoch
	}
	t.doneEx[epoch] = true
	for t.doneEx[t.doneLo] {
		delete(t.doneEx, t.doneLo)
		t.doneLo++
	}
	cb := t.onDone[epoch]
	delete(t.heard, epoch)
	delete(t.local, epoch)
	delete(t.onDone, epoch)
	if cb != nil {
		cb()
	}
}

// tracker is the surface both implementations share.
type tracker interface {
	LocalTransition(epoch uint64, onDone func())
	Arrive(epoch uint64, from myrinet.NodeID) bool
	Heard(epoch uint64, from myrinet.NodeID) bool
	State(epoch uint64) (bool, int)
	Done(epoch uint64) bool
	Transitioned(epoch uint64) bool
	ForceComplete(epoch uint64) bool
	Evict(peer myrinet.NodeID)
	Evicted(peer myrinet.NodeID) bool
	Join(peer myrinet.NodeID)
}

// TestPhaseTrackerMatchesReference drives the dense tracker and the
// map-based reference with the same random operation sequences — local
// transitions, fresh, duplicate and stale arrivals over several interleaved
// epochs, evictions, joins and forced completions, with completion
// callbacks that re-enter the tracker — and requires identical answers
// from every query and an identical completion order after each step. The
// peer counts straddle the bitset's 64-bit word boundaries.
func TestPhaseTrackerMatchesReference(t *testing.T) {
	for _, peers := range []int{1, 63, 64, 65, 255} {
		seeds := 12
		if testing.Short() {
			seeds = 3
		}
		for seed := int64(1); seed <= int64(seeds); seed++ {
			runReferenceTrial(t, peers, seed)
		}
	}
}

func runReferenceTrial(t *testing.T, peers int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed*1000 + int64(peers)))
	ref, got := newRefTracker(peers), newPhaseTracker(peers)
	var refLog, gotLog []uint64
	transitioned := make(map[uint64]bool)
	// The tracker's own node is 0; its remote peers are 1…peers.
	all := make([]myrinet.NodeID, peers)
	for i := range all {
		all[i] = myrinet.NodeID(i + 1)
	}
	randPeer := func() myrinet.NodeID { return all[rng.Intn(peers)] }
	var base uint64 = 10 // epochs below base are mostly finished
	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("peers=%d seed=%d step %d: "+format, append([]any{peers, seed, step}, args...)...)
	}
	// A callback records the completion and may re-enter its own tracker
	// with an arrival for the next epoch, as a card's completion path can.
	callback := func(tr tracker, log *[]uint64, epoch uint64, reenter myrinet.NodeID) func() {
		return func() {
			*log = append(*log, epoch)
			if reenter >= 0 {
				tr.Arrive(epoch+1, reenter)
			}
		}
	}
	// unheard returns the lowest (or highest) member the reference has not
	// yet heard for the epoch. Arrivals from the lowest let large epochs
	// complete without waiting on a coupon collector; since every epoch
	// then misses the same high peers, evicting the highest tends to
	// complete several open epochs at once.
	unheard := func(epoch uint64, highest bool) myrinet.NodeID {
		for i := range all {
			id := all[i]
			if highest {
				id = all[peers-1-i]
			}
			if !ref.Evicted(id) && !ref.Heard(epoch, id) {
				return id
			}
		}
		return randPeer()
	}
	compareEpoch := func(step int, e uint64, peersToCheck ...myrinet.NodeID) {
		rl, rr := ref.State(e)
		gl, gr := got.State(e)
		if rl != gl || rr != gr {
			fail(step, "State(%d) = (%v,%d), reference (%v,%d)", e, gl, gr, rl, rr)
		}
		if ref.Done(e) != got.Done(e) {
			fail(step, "Done(%d) = %v, reference %v", e, got.Done(e), ref.Done(e))
		}
		if ref.Transitioned(e) != got.Transitioned(e) {
			fail(step, "Transitioned(%d) = %v, reference %v", e, got.Transitioned(e), ref.Transitioned(e))
		}
		for _, p := range peersToCheck {
			if ref.Heard(e, p) != got.Heard(e, p) {
				fail(step, "Heard(%d, %d) = %v, reference %v", e, p, got.Heard(e, p), ref.Heard(e, p))
			}
		}
	}
	steps := 40*peers + 400
	for step := 0; step < steps; step++ {
		epoch := base - 2 + uint64(rng.Intn(6)) // includes stale epochs
		peer := randPeer()
		switch r := rng.Intn(100); {
		case r < 8:
			if transitioned[epoch] {
				continue
			}
			transitioned[epoch] = true
			reenter := myrinet.NodeID(-1)
			if rng.Intn(3) == 0 {
				reenter = randPeer()
			}
			ref.LocalTransition(epoch, callback(ref, &refLog, epoch, reenter))
			got.LocalTransition(epoch, callback(got, &gotLog, epoch, reenter))
		case r < 10:
			// Starve: bring every open epoch the node has entered to all
			// members but one, then evict that one, so a single Evict
			// completes several epochs and their order is checked.
			for e := base - 3; e < base+5; e++ {
				if !ref.Transitioned(e) || ref.Done(e) {
					continue
				}
				for _, m := range all {
					if m != peer && !ref.Evicted(m) {
						ref.Arrive(e, m)
						got.Arrive(e, m)
					}
				}
			}
			ref.Evict(peer)
			got.Evict(peer)
		case r < 88:
			if rng.Intn(2) == 0 {
				peer = unheard(epoch, false)
			}
			if a, b := ref.Arrive(epoch, peer), got.Arrive(epoch, peer); a != b {
				fail(step, "Arrive(%d, %d) = %v, reference %v", epoch, peer, b, a)
			}
			if rng.Intn(4) == 0 { // a duplicate right behind it
				if a, b := ref.Arrive(epoch, peer), got.Arrive(epoch, peer); a != b {
					fail(step, "duplicate Arrive(%d, %d) = %v, reference %v", epoch, peer, b, a)
				}
			}
		case r < 92:
			if rng.Intn(2) == 0 {
				peer = unheard(epoch, true)
			}
			ref.Evict(peer)
			got.Evict(peer)
		case r < 96:
			ref.Join(peer)
			got.Join(peer)
		default:
			if a, b := ref.ForceComplete(epoch), got.ForceComplete(epoch); a != b {
				fail(step, "ForceComplete(%d) = %v, reference %v", epoch, b, a)
			}
		}
		if ref.Done(base) && rng.Intn(4) == 0 {
			base++
		}
		if !slices.Equal(refLog, gotLog) {
			fail(step, "completion order %v, reference %v", gotLog, refLog)
		}
		if ref.Evicted(peer) != got.Evicted(peer) {
			fail(step, "Evicted(%d) = %v, reference %v", peer, got.Evicted(peer), ref.Evicted(peer))
		}
		check := []myrinet.NodeID{peer, randPeer()}
		if step%64 == 0 {
			check = all
		}
		for e := base - 3; e < base+5; e++ {
			compareEpoch(step, e, check...)
		}
	}
	if len(refLog) == 0 {
		t.Fatalf("peers=%d seed=%d: no epoch ever completed; the trial exercised nothing", peers, seed)
	}
}

// TestPhaseTrackerSteadyStateZeroAlloc pins the clean path's allocation
// budget: once warm, a whole flush+release epoch on a 255-peer tracker
// pair — including early arrivals for the next epoch — allocates nothing.
func TestPhaseTrackerSteadyStateZeroAlloc(t *testing.T) {
	const peers = 255
	flush, release := newPhaseTracker(peers), newPhaseTracker(peers)
	completions := 0
	onDone := func() { completions++ }
	var epoch uint64
	run := func() {
		epoch++
		for _, pt := range []*phaseTracker{flush, release} {
			pt.Arrive(epoch, 1)
			pt.LocalTransition(epoch, onDone)
			for p := 2; p <= peers; p++ {
				pt.Arrive(epoch, myrinet.NodeID(p))
				if p == peers/2 {
					pt.Arrive(epoch+1, 1) // a fast peer already in the next epoch
				}
			}
		}
	}
	for i := 0; i < 4; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("steady-state epoch allocated %.1f times, want 0", allocs)
	}
	if want := 2 * int(epoch); completions != want {
		t.Fatalf("%d completions, want %d", completions, want)
	}
}

// BenchmarkPhaseTrackerEpoch measures one clean epoch — the local
// transition and p-1 arrivals — and reports the cost per arrival, which
// stays flat in p.
func BenchmarkPhaseTrackerEpoch(b *testing.B) {
	for _, peers := range []int{15, 255} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			pt := newPhaseTracker(peers)
			onDone := func() {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				epoch := uint64(i)
				pt.LocalTransition(epoch, onDone)
				for p := 1; p <= peers; p++ {
					pt.Arrive(epoch, myrinet.NodeID(p))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*peers), "ns/arrival")
		})
	}
}

// State returns (locallyDone, remoteCount) for an epoch — the Figure 3
// state label (S/H, k) with k = remoteCount + (1 if locallyDone); the
// count covers only peers that are still members.
func (t *phaseTracker) State(epoch uint64) (local bool, remote int) {
	if r := t.lookup(epoch); r != nil {
		return r.local, r.live
	}
	return false, 0
}
