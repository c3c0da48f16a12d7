// Package des implements the discrete-event simulation kernel that drives
// every simulator in this repository (the switched-Ethernet model and the
// MIL-STD-1553B baseline bus).
//
// The kernel is a classic event-list simulator: events carry a virtual
// timestamp, a monotonically increasing sequence number for deterministic
// tie-breaking, and a callback. The scheduler delivers the earliest event,
// advances the virtual clock to its timestamp, and runs the callback, which
// may schedule further events. Because ties are broken by insertion order,
// a simulation with a fixed seed is fully deterministic: the same inputs
// always produce the same event trace, byte for byte.
//
// Pending events live in two heaps. The near heap holds one-shot events
// (At/After: port deliveries, transmit completions, switch relays, shaper
// wake-ups). The recurring heap holds the next occurrence of each
// recurring process (Recur/Every: traffic sources, the 1553B minor
// frame). A recurring process re-arms far into the future every time it
// fires, so keeping those nodes apart leaves the near heap holding only
// the handful of events that are actually imminent, and most pops sift
// through a heap a few nodes deep. The scheduler takes the smaller of
// the two heads by (time, sequence); sequence numbers are drawn from one
// counter at scheduling time whichever heap an event joins, so the
// delivery order is the single sorted order a one-heap kernel produces.
//
// Event records are pooled: a fired or canceled event returns to a
// free list and is reused by the next At/After or re-arm, so the
// steady-state scheduling path performs no heap allocation. A per-event
// generation counter keeps stale EventRefs (to fired, canceled, or
// recycled events) safely invalid.
package des

import (
	"fmt"

	"repro/internal/simtime"
)

// Handler is the callback executed when an event fires. It runs with the
// simulation clock already advanced to the event's timestamp.
type Handler func()

// event is a scheduled callback.
type event struct {
	at  simtime.Time
	seq uint64 // tie-break: FIFO among equal timestamps
	fn  Handler
	// idx is the record's permanent slot in the simulator's record table; heap
	// nodes address records by this index so the heap itself stays free
	// of pointers (the GC neither scans nor write-barriers sift moves).
	idx int32
	// canceled marks a record whose event was withdrawn while still in
	// the heap; the scheduler discards it when it surfaces (lazy
	// deletion, so the sift routines never have to track heap indices).
	canceled bool
	// gen increments whenever the record's event dies — fired, canceled,
	// or recycled — invalidating any EventRef still pointing at it.
	gen uint64
}

// EventRef identifies a scheduled event so it can be canceled. The zero
// value is not a valid reference.
type EventRef struct {
	ev  *event
	gen uint64
}

// Valid reports whether the reference points at a still-pending event.
func (r EventRef) Valid() bool { return r.ev != nil && r.gen == r.ev.gen }

// eventQueue is a 4-ary heap ordered by (time, sequence), hand-rolled
// instead of container/heap: the scheduler is the single hottest loop of
// every simulation, and the direct sift routines avoid the interface
// dispatch and swap-by-index indirection of the generic heap (the wider
// node halves the sift-down depth and keeps siblings on one cache line).
// Heap nodes carry (at, seq) by value so sift comparisons never chase the
// *event pointer — the event record is touched only on push and pop.
//
// A Simulator keeps two of these (near and recurring events, see the
// package comment) and always delivers the smaller of their two roots.
// Because (at, seq) is a strict total order (seq is unique across both
// heaps), that merge yields exactly sorted order for any correct heap,
// so neither the split nor the heap implementation can change a
// simulation's event trace.
type eventQueue struct {
	ev []heapNode
}

// heapNode is one heap slot: the ordering key inline plus the record's
// pool index. The node is deliberately pointer-free.
type heapNode struct {
	at  simtime.Time
	seq uint64
	idx int32
}

// arity is the heap fan-out.
const arity = 4

func nodeLess(a, b heapNode) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push appends ev and sifts it up to its heap position.
func (q *eventQueue) push(ev *event) {
	i := len(q.ev)
	//rtlint:presized heap presized at construction; growth past the high-water mark is amortized
	q.ev = append(q.ev, heapNode{at: ev.at, seq: ev.seq, idx: ev.idx})
	q.up(i)
}

// pop removes and returns the pool index of the earliest event.
//
// It uses the bottom-up deletion strategy: sink the root hole to a leaf
// following the smallest child (child-only comparisons), then place the
// former last element into the hole and sift it up. The displaced last
// element is usually near-maximal — a leaf of a heap whose keys mostly
// grow — so the up-pass terminates after a comparison or two, saving the
// per-level "new element vs child" comparison of the classic sift-down.
func (q *eventQueue) pop() int32 {
	idx := q.ev[0].idx
	n := len(q.ev) - 1
	last := q.ev[n]
	q.ev = q.ev[:n]
	if n > 0 {
		// Sink the hole at the root to a leaf along min-children.
		i := 0
		for {
			first := arity*i + 1
			if first >= n {
				break
			}
			end := first + arity
			if end > n {
				end = n
			}
			best := first
			for c := first + 1; c < end; c++ {
				if nodeLess(q.ev[c], q.ev[best]) {
					best = c
				}
			}
			q.ev[i] = q.ev[best]
			i = best
		}
		// Drop the last element into the leaf hole and restore order.
		q.ev[i] = last
		q.up(i)
	}
	return idx
}

// up sifts the node at position i toward the root.
func (q *eventQueue) up(i int) {
	nd := q.ev[i]
	for i > 0 {
		parent := (i - 1) / arity
		p := q.ev[parent]
		if !nodeLess(nd, p) {
			break
		}
		q.ev[i] = p
		i = parent
	}
	q.ev[i] = nd
}

// Simulator owns the virtual clock and the pending event set. It is not safe
// for concurrent use: a simulation is a single logical thread of control, and
// all model code runs inside event handlers on one goroutine. (This is a
// deliberate design choice — it is what makes runs reproducible.)
type Simulator struct {
	now simtime.Time
	// near holds one-shot events (At/After); recur holds the next
	// occurrence of each recurring process (Recur/Every).
	near, recur eventQueue
	nextSeq     uint64
	rng         *RNG
	// pool holds the event records and their free list.
	pool recordPool
	// pending counts scheduled, not-yet-delivered events (kept live so
	// Pending is O(1)).
	pending int
	// canceledInHeap counts lazily-canceled records still waiting in
	// either heap, so the hot scheduling path skips the cancellation
	// check entirely while it is zero (the overwhelmingly common state).
	canceledInHeap int
	// executed counts delivered events, for progress reporting and tests.
	executed uint64
	// tracer, if non-nil, observes every delivered event.
	tracer func(at simtime.Time)
}

// recordPool is the simulator's free list of event records.
type recordPool struct {
	// recs is the permanent record table: event idx → record. Records
	// are never freed, only returned to the free list.
	recs []*event
	// free holds the pool indices of recycled records.
	free []int32
}

// get takes a free record, or allocates and registers a fresh one.
func (p *recordPool) get() *event {
	if n := len(p.free); n > 0 {
		idx := p.free[n-1]
		p.free = p.free[:n-1]
		return p.recs[idx]
	}
	//rtlint:coldpath pool miss: registers a fresh record, once per high-water mark
	ev := &event{idx: int32(len(p.recs))}
	//rtlint:coldpath pool miss: the record table grows only with the pool
	p.recs = append(p.recs, ev)
	return ev
}

// heapPresize is the node capacity both heaps share at construction, and
// nearPresize the near heap's part of it. One allocation of 256 nodes,
// split in halves, covers the peaks of the built-in scenarios (94
// recurring sources; up to 126 near events, at the dual-plane critical
// instant) so warm-up pushes don't walk the append doubling chain; a
// heap that outgrows its part reallocates on its own, without touching
// the other's.
const (
	heapPresize = 256
	nearPresize = 128
)

// New creates a simulator with its clock at the epoch and a deterministic
// random number generator derived from seed.
func New(seed uint64) *Simulator {
	s := &Simulator{rng: NewRNG(seed)}
	nodes := make([]heapNode, heapPresize)
	s.near.ev = nodes[:0:nearPresize]
	s.recur.ev = nodes[nearPresize:nearPresize]
	return s
}

// Now returns the current virtual time.
func (s *Simulator) Now() simtime.Time { return s.now }

// RNG returns the simulator's deterministic random source.
func (s *Simulator) RNG() *RNG { return s.rng }

// Pending returns the number of scheduled, not-yet-delivered events.
func (s *Simulator) Pending() int { return s.pending }

// Executed returns the number of events delivered so far.
func (s *Simulator) Executed() uint64 { return s.executed }

// SetTracer installs a hook called with the timestamp of every delivered
// event. Passing nil removes the hook.
func (s *Simulator) SetTracer(fn func(at simtime.Time)) { s.tracer = fn }

// recycle invalidates every outstanding reference to ev and returns the
// record to the free list.
func (s *Simulator) recycle(ev *event) {
	ev.fn = nil
	ev.gen++
	//rtlint:presized free list capacity tracks the record table; growth is amortized past the high-water mark
	s.pool.free = append(s.pool.free, ev.idx)
}

// At schedules fn to run at the absolute virtual time at. Scheduling in the
// past is a model bug and panics, because silently reordering causality would
// invalidate every latency measurement downstream.
//
//rtlint:hotpath
func (s *Simulator) At(at simtime.Time, fn Handler) EventRef {
	return s.schedule(&s.near, at, fn)
}

// After schedules fn to run d after the current time.
//
//rtlint:hotpath
func (s *Simulator) After(d simtime.Duration, fn Handler) EventRef {
	if d < 0 {
		panic(fmt.Sprintf("des: negative delay %v", d))
	}
	return s.At(s.now.Add(d), fn)
}

// schedule takes a record, stamps it with at and the next sequence
// number, and pushes it on q.
//
//rtlint:hotpath
func (s *Simulator) schedule(q *eventQueue, at simtime.Time, fn Handler) EventRef {
	if at < s.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", at, s.now))
	}
	if fn == nil {
		panic("des: nil event handler")
	}
	ev := s.pool.get()
	ev.at = at
	ev.seq = s.nextSeq
	ev.fn = fn
	s.nextSeq++
	q.push(ev)
	s.pending++
	return EventRef{ev: ev, gen: ev.gen}
}

// Cancel withdraws a pending event. Canceling an already-fired or
// already-canceled event is a no-op so model code can cancel defensively.
// Cancellation is lazy: the record is marked dead and discarded when it
// reaches the top of its heap, so the sift routines never maintain heap
// indices. The record rejoins the free list only once it surfaces.
//
//rtlint:hotpath
func (s *Simulator) Cancel(r EventRef) {
	if !r.Valid() {
		return
	}
	r.ev.canceled = true
	r.ev.fn = nil
	r.ev.gen++ // invalidate outstanding references immediately
	s.pending--
	s.canceledInHeap++
}

// head discards lazily-canceled records sitting at either root and
// returns the heap whose root is the earliest live event, or nil when
// nothing is pending. While no cancels are outstanding the discard is a
// single counter check.
func (s *Simulator) head() *eventQueue {
	if s.canceledInHeap > 0 {
		s.drainCanceled(&s.near)
		s.drainCanceled(&s.recur)
	}
	near, recur := &s.near, &s.recur
	if len(recur.ev) == 0 {
		if len(near.ev) == 0 {
			return nil
		}
		return near
	}
	if len(near.ev) == 0 || nodeLess(recur.ev[0], near.ev[0]) {
		return recur
	}
	return near
}

// drainCanceled pops canceled records off q's root until a live event
// (or nothing) is there.
func (s *Simulator) drainCanceled(q *eventQueue) {
	for len(q.ev) > 0 && s.pool.recs[q.ev[0].idx].canceled {
		ev := s.pool.recs[q.pop()]
		ev.canceled = false
		s.canceledInHeap--
		s.recycle(ev)
	}
}

// Step delivers the single earliest pending event and returns true, or
// returns false if nothing is pending.
//
//rtlint:hotpath
func (s *Simulator) Step() bool {
	q := s.head()
	if q == nil {
		return false
	}
	s.deliver(q)
	return true
}

// deliver pops q's root, advances the clock to it and runs its handler.
//
//rtlint:hotpath
func (s *Simulator) deliver(q *eventQueue) {
	ev := s.pool.recs[q.pop()]
	s.pending--
	s.now = ev.at
	s.executed++
	at, fn := ev.at, ev.fn
	// Recycle before running the handler: the handler may immediately
	// schedule new events, reusing this record, and any stale reference
	// to the fired event is already invalid (generation bumped).
	s.recycle(ev)
	if s.tracer != nil {
		s.tracer(at)
	}
	fn()
}

// Run delivers events until none is pending.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil delivers events with timestamps ≤ deadline, then advances the
// clock to exactly deadline. Events scheduled beyond the deadline remain
// pending; a subsequent RunUntil may deliver them.
//
//rtlint:hotpath
func (s *Simulator) RunUntil(deadline simtime.Time) {
	for {
		q := s.head()
		if q == nil || q.ev[0].at > deadline {
			break
		}
		s.deliver(q)
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor runs the simulation for a span of virtual time from now.
func (s *Simulator) RunFor(d simtime.Duration) {
	s.RunUntil(s.now.Add(d))
}

// Recur runs fn at now+phase and then again after each gap fn returns,
// until the returned stop function is called (stop may be called from
// inside fn, which then fires no more, whatever it returns). It is the
// kernel's one recurring process: traffic sources, periodic or with
// random gaps, and the 1553B minor-frame interrupt are built on it, and
// their pending occurrences live in the recurring heap.
//
// Each re-arm is scheduled when fn returns, after everything fn itself
// scheduled, exactly as a handler ending in After(gap, ...) would be, so
// the sequence numbers — and with them the event trace — are those of
// that hand-written chain. A gap must be positive: a recurrence that
// does not advance the clock is a model bug, and panics.
func (s *Simulator) Recur(phase simtime.Duration, fn func() simtime.Duration) (stop func()) {
	if phase < 0 {
		panic(fmt.Sprintf("des: negative phase %v", phase))
	}
	if fn == nil {
		panic("des: nil recurrence")
	}
	r := &recurrence{s: s, fn: fn}
	r.tick = r.fire
	r.ref = s.schedule(&s.recur, s.now.Add(phase), r.tick)
	return r.stop
}

// recurrence is the state of one Recur process.
type recurrence struct {
	s       *Simulator
	fn      func() simtime.Duration
	tick    Handler // r.fire, bound once so re-arms allocate nothing
	ref     EventRef
	stopped bool
}

// fire runs one occurrence and re-arms the next.
//
//rtlint:hotpath
func (r *recurrence) fire() {
	gap := r.fn()
	if r.stopped { // fn may have called stop
		return
	}
	if gap <= 0 {
		panic(fmt.Sprintf("des: non-positive recurrence gap %v", gap))
	}
	r.ref = r.s.schedule(&r.s.recur, r.s.now.Add(gap), r.tick)
}

// stop ends the recurrence and cancels its pending occurrence.
func (r *recurrence) stop() {
	r.stopped = true
	r.s.Cancel(r.ref)
}

// Every schedules fn to run now+phase, then every period thereafter, until
// the returned stop function is called. It is Recur with a fixed gap.
func (s *Simulator) Every(phase, period simtime.Duration, fn Handler) (stop func()) {
	if period <= 0 {
		panic(fmt.Sprintf("des: non-positive period %v", period))
	}
	return s.Recur(phase, func() simtime.Duration {
		fn()
		return period
	})
}
