package lanai

// flush.go implements the state machines of paper Figure 3 (network flush)
// and its mirror image for the release stage.
//
// During a flush, each node performs two independent things, interleaved
// arbitrarily: a *local halt* ("lh": stop transmitting, broadcast a halt
// message) and the *collection* of halt messages from every other node
// ("ah" transitions). The flush completes in state H,p — locally halted
// and p-1 remote halts counted (the node itself is the p-th).
//
// Because nodes are not synchronized, a node can receive halts — or even
// readys — for an epoch it has not itself entered yet. Counters are
// therefore keyed by epoch; this is the robustness refinement called out
// in DESIGN.md (the real system relied on phase alternation).
//
// The tracker also remembers *which* peer each message came from, which is
// what makes the recovery layer possible: duplicates (from retransmission)
// are idempotent, completed epochs reject late stragglers, the unheard-peer
// set is the retransmission target list, and an evicted peer can be dropped
// from the expected count of every open epoch.
//
// Counting an arrival is O(1): each open epoch is one pooled record holding
// a bitset of the peers heard (NodeIDs are dense, 0…p−1) and a counter of
// those still members. Evict and Join adjust the counter in every open
// epoch that heard the peer, so the completion test never walks the set.

import "gangfm/internal/myrinet"

// phaseTracker counts one class of control message (halt or ready) per
// epoch and fires a completion callback when the local transition has
// happened and all expected remote messages have arrived.
type phaseTracker struct {
	peers int                // number of live remote nodes expected to report (p-1)
	typ   myrinet.PacketType // the class counted, Halt or Ready (set by the card)

	// open holds the epochs with state — a local transition or a counted
	// arrival — that have not completed, in ascending epoch order. Only a
	// handful are ever open at once (the current switch and early
	// arrivals for the next), so lookups scan it from the newest end.
	open []*epochRecord
	// words is the bitset length of every record, in 64-bit words,
	// covering NodeIDs 0…peers (the card's whole network).
	words   int
	evicted []bool

	// Completed epochs are tracked as a watermark plus exceptions rather
	// than an ever-growing set: epochs complete (nearly) in order, one per
	// switch, so a per-epoch map entry retained forever would make the
	// steady state allocate. Every epoch below doneLo is complete (valid
	// once doneAny is set — the floor is anchored to the first completed
	// epoch, since callers may start numbering anywhere); doneEx holds the
	// out-of-order completions at or above the floor and is compacted into
	// doneLo as the gap fills.
	doneLo  uint64
	doneAny bool
	doneEx  map[uint64]bool

	// pool recycles cleared records: epochs open and close at every
	// switch, so reusing them keeps the steady-state flush
	// allocation-free.
	pool []*epochRecord
}

// epochRecord is one open epoch's Figure 3 state.
type epochRecord struct {
	epoch  uint64
	heard  []uint64 // bitset of the peers whose message was counted
	live   int      // heard peers that are not evicted
	local  bool     // the local transition ("lh") has happened
	onDone func()
}

func newPhaseTracker(peers int) *phaseTracker {
	nodes := peers + 1
	return &phaseTracker{
		peers:   peers,
		words:   (nodes + 63) / 64,
		evicted: make([]bool, nodes),
		doneEx:  make(map[uint64]bool),
	}
}

// bit returns the word index and mask of a peer in a record's bitset.
func bit(peer myrinet.NodeID) (int, uint64) {
	return int(peer) >> 6, 1 << (uint(peer) & 63)
}

// heardBy reports whether the record has counted the peer.
func (r *epochRecord) heardBy(peer myrinet.NodeID) bool {
	w, m := bit(peer)
	return r.heard[w]&m != 0
}

// lookup returns the epoch's open record, or nil.
func (t *phaseTracker) lookup(epoch uint64) *epochRecord {
	for i := len(t.open) - 1; i >= 0; i-- {
		if r := t.open[i]; r.epoch <= epoch {
			if r.epoch == epoch {
				return r
			}
			return nil
		}
	}
	return nil
}

// record returns the epoch's open record, opening one from the pool if
// the epoch has none.
func (t *phaseTracker) record(epoch uint64) *epochRecord {
	i := len(t.open)
	for ; i > 0 && t.open[i-1].epoch >= epoch; i-- {
		if t.open[i-1].epoch == epoch {
			return t.open[i-1]
		}
	}
	var r *epochRecord
	if ln := len(t.pool); ln > 0 {
		r = t.pool[ln-1]
		t.pool = t.pool[:ln-1]
	} else {
		r = &epochRecord{}
	}
	if r.heard == nil {
		r.heard = make([]uint64, t.words)
	}
	r.epoch = epoch
	t.open = append(t.open, nil)
	copy(t.open[i+1:], t.open[i:])
	t.open[i] = r
	return r
}

// LocalTransition records the node's own halt/ready ("lh" in Figure 3) for
// epoch and registers the completion callback.
func (t *phaseTracker) LocalTransition(epoch uint64, onDone func()) {
	r := t.record(epoch)
	if r.local {
		panic("lanai: duplicate local phase transition for epoch")
	}
	r.local = true
	r.onDone = onDone
	t.check(r)
}

// Arrive records a remote halt/ready ("ah" in Figure 3) for epoch from the
// given peer. It reports whether the message carried new information: a
// duplicate of an already-counted peer, a message for a completed epoch, or
// one from an evicted peer is stale and returns false (the caller counts it
// and drops the packet).
func (t *phaseTracker) Arrive(epoch uint64, from myrinet.NodeID) bool {
	if t.Done(epoch) || t.evicted[from] {
		return false
	}
	r := t.record(epoch)
	w, m := bit(from)
	if r.heard[w]&m != 0 {
		return false
	}
	r.heard[w] |= m
	r.live++
	t.check(r)
	return true
}

// Heard reports whether the peer's message for epoch has been counted.
func (t *phaseTracker) Heard(epoch uint64, from myrinet.NodeID) bool {
	r := t.lookup(epoch)
	return r != nil && r.heardBy(from)
}

// Done reports whether the epoch's phase has completed.
func (t *phaseTracker) Done(epoch uint64) bool {
	return (t.doneAny && epoch < t.doneLo) || (len(t.doneEx) > 0 && t.doneEx[epoch])
}

// Transitioned reports whether this node has made its own transition for
// the epoch (including epochs already completed, whose per-epoch state has
// been freed).
func (t *phaseTracker) Transitioned(epoch uint64) bool {
	if t.Done(epoch) {
		return true
	}
	r := t.lookup(epoch)
	return r != nil && r.local
}

// ForceComplete completes an epoch's phase without the missing peers — the
// recovery layer's last resort after the retransmission budget is spent.
// It is a no-op before the local transition or after normal completion.
func (t *phaseTracker) ForceComplete(epoch uint64) bool {
	r := t.lookup(epoch)
	if r == nil || !r.local || t.Done(epoch) {
		return false
	}
	t.complete(r)
	return true
}

// Evict removes a peer from the membership: it is no longer expected to
// report for any epoch, past or future. Open epochs whose only missing
// messages were the evicted peer's complete immediately (in ascending epoch
// order, for determinism).
func (t *phaseTracker) Evict(peer myrinet.NodeID) {
	if t.evicted[peer] {
		return
	}
	t.evicted[peer] = true
	t.peers--
	var ready []uint64
	for _, r := range t.open {
		if r.heardBy(peer) {
			r.live--
		}
		if r.local {
			ready = append(ready, r.epoch)
		}
	}
	// Completion callbacks may open or complete other epochs, so each
	// candidate is looked up afresh.
	for _, e := range ready {
		if r := t.lookup(e); r != nil {
			t.check(r)
		}
	}
}

// Evicted reports whether the peer has been removed from the membership.
func (t *phaseTracker) Evicted(peer myrinet.NodeID) bool { return t.evicted[peer] }

// Join restores an evicted peer to the membership: future epochs expect its
// reports again. The caller (the masterd rejoin barrier) guarantees no epoch
// is open anywhere when joins are applied — growing the membership mid-epoch
// could stall an epoch that was already satisfied — so Join never completes
// an epoch; it only counts the peer again in any open epoch that heard it
// before the eviction, keeping State exact.
func (t *phaseTracker) Join(peer myrinet.NodeID) {
	if !t.evicted[peer] {
		return
	}
	t.evicted[peer] = false
	t.peers++
	for _, r := range t.open {
		if r.heardBy(peer) {
			r.live++
		}
	}
}

func (t *phaseTracker) check(r *epochRecord) {
	if !r.local || r.live < t.peers || t.Done(r.epoch) {
		return
	}
	t.complete(r)
}

func (t *phaseTracker) complete(r *epochRecord) {
	epoch := r.epoch
	if !t.doneAny {
		t.doneAny = true
		t.doneLo = epoch
	}
	if epoch == t.doneLo {
		t.doneLo++
	} else {
		t.doneEx[epoch] = true
	}
	for len(t.doneEx) > 0 && t.doneEx[t.doneLo] {
		delete(t.doneEx, t.doneLo)
		t.doneLo++
	}
	cb := r.onDone
	// Free the epoch's record; epochs are never revisited (the done
	// watermark keeps stragglers for old epochs detectable without
	// retaining per-epoch state).
	for i, o := range t.open {
		if o == r {
			last := len(t.open) - 1
			copy(t.open[i:], t.open[i+1:])
			t.open[last] = nil
			t.open = t.open[:last]
			break
		}
	}
	clear(r.heard)
	*r = epochRecord{heard: r.heard}
	t.pool = append(t.pool, r)
	if cb != nil {
		cb()
	}
}
