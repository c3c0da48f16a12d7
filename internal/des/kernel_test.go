package des

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/simtime"
)

// The kernel's contract, checked against a reference model:
//
//   - Events are delivered in ascending (at, seq) order, where seq counts
//     scheduling calls — At, After, the first arm of Recur/Every, and each
//     re-arm, which is made when the recurring handler returns. Which of
//     the two heaps an event sits in never shows in the order.
//   - Pending is the number of scheduled, uncanceled, undelivered events;
//     Executed the number delivered.
//   - An EventRef to a fired or canceled event stays invalid, and
//     canceling it is a no-op, even after its record is reused.
//   - Stop (from outside or from inside the recurring handler) ends a
//     recurrence at once: it fires no more and is no longer pending.

// modelEvent is one scheduled event as the reference model sees it.
type modelEvent struct {
	at        simtime.Time
	seq       uint64
	recurring bool
	canceled  bool
}

// modelRecurrence is one Recur/Every process of the random mix.
type modelRecurrence struct {
	stop    func()
	key     int // model key of its pending occurrence
	stopped bool
	period  simtime.Duration // > 0 for Every, 0 for Recur (random gaps)
}

// kernelMix drives a simulator through a seeded random mix of one-shot
// events, recurrences, cancels and stops, checking every delivery
// against the model.
type kernelMix struct {
	t    *testing.T
	seed uint64
	s    *Simulator
	rng  *RNG
	// events holds every event ever scheduled, by model key.
	events []modelEvent
	// seq mirrors the kernel's sequence counter.
	seq       uint64
	pending   int
	delivered []int
	live      []int      // keys of pending one-shots, for random cancels
	refs      []EventRef // refs[key] for one-shots
	stale     []EventRef // refs to fired or canceled one-shots
	recs      []*modelRecurrence
	firing    *modelRecurrence // whose handler is running, if any
	// mixedTies counts deliveries that tie in time with the previous one
	// while coming from the other heap.
	mixedTies int
	failed    bool
}

// errorf reports the mix's first failure, under its seed.
func (m *kernelMix) errorf(format string, args ...any) {
	if !m.failed {
		m.t.Errorf("seed %d: %s", m.seed, fmt.Sprintf(format, args...))
	}
	m.failed = true
}

// newKey records a scheduling call at time at and returns its key.
func (m *kernelMix) newKey(at simtime.Time, recurring bool) int {
	m.events = append(m.events, modelEvent{at: at, seq: m.seq, recurring: recurring})
	m.seq++
	m.pending++
	return len(m.events) - 1
}

// arrive checks that key is the earliest pending event of the model and
// marks it delivered.
func (m *kernelMix) arrive(key int) {
	ev := m.events[key]
	if ev.canceled {
		m.errorf("canceled event %d delivered", key)
	}
	if m.s.Now() != ev.at {
		m.errorf("event %d delivered at %v, scheduled for %v", key, m.s.Now(), ev.at)
	}
	if n := len(m.delivered); n > 0 {
		prev := m.events[m.delivered[n-1]]
		if prev.at == ev.at && prev.recurring != ev.recurring {
			m.mixedTies++
		}
	}
	m.delivered = append(m.delivered, key)
	m.pending--
	if got := m.s.Pending(); got != m.pending {
		m.errorf("Pending() = %d inside handler, model %d", got, m.pending)
	}
	if got := m.s.Executed(); got != uint64(len(m.delivered)) {
		m.errorf("Executed() = %d, model %d", got, len(m.delivered))
	}
	for i := 0; i < 4 && len(m.stale) > 0; i++ {
		if m.stale[m.rng.Intn(len(m.stale))].Valid() {
			m.errorf("stale EventRef became valid")
		}
	}
}

// act performs a few random kernel calls from inside a handler (or at
// set-up). depth bounds the fan-out so the mix stays finite.
func (m *kernelMix) act(depth int) {
	n := m.rng.Intn(3)
	if depth > 6 {
		n = 0
	}
	for i := 0; i < n; i++ {
		switch op := m.rng.Intn(10); {
		case op < 4: // one-shot, often tying with a pending time
			d := simtime.Duration(m.rng.Intn(8))
			m.oneShot(d, depth+1)
		case op < 5 && len(m.recs) < 12:
			m.recur(simtime.Duration(m.rng.Intn(6)), simtime.Duration(m.rng.Intn(2)*(1+m.rng.Intn(5))))
		case op < 7 && len(m.live) > 0: // cancel a live one-shot
			j := m.rng.Intn(len(m.live))
			key := m.live[j]
			m.live = append(m.live[:j], m.live[j+1:]...)
			m.s.Cancel(m.refs[key])
			m.events[key].canceled = true
			m.pending--
			m.stale = append(m.stale, m.refs[key])
		case op < 8 && len(m.stale) > 0: // cancel a stale ref: no-op
			m.s.Cancel(m.stale[m.rng.Intn(len(m.stale))])
		case op < 9 && len(m.recs) > 0: // stop a recurrence, maybe its own
			r := m.recs[m.rng.Intn(len(m.recs))]
			if !r.stopped && r != m.firing {
				m.events[r.key].canceled = true
				m.pending--
			}
			r.stop()
			r.stop() // a repeated stop is a no-op
			r.stopped = true
		}
		if got := m.s.Pending(); got != m.pending {
			m.errorf("Pending() = %d after op, model %d", got, m.pending)
		}
	}
}

func (m *kernelMix) oneShot(d simtime.Duration, depth int) {
	useAt := m.rng.Intn(2) == 0
	at := m.s.Now().Add(d)
	key := m.newKey(at, false)
	fn := func() {
		m.removeLive(key)
		m.stale = append(m.stale, m.refs[key])
		m.arrive(key)
		m.act(depth)
	}
	var ref EventRef
	if useAt {
		ref = m.s.At(at, fn)
	} else {
		ref = m.s.After(d, fn)
	}
	for len(m.refs) <= key {
		m.refs = append(m.refs, EventRef{})
	}
	m.refs[key] = ref
	m.live = append(m.live, key)
}

func (m *kernelMix) removeLive(key int) {
	for j, k := range m.live {
		if k == key {
			m.live = append(m.live[:j], m.live[j+1:]...)
			return
		}
	}
}

// recur starts a recurrence: Every with the given period, or (period 0)
// Recur with gaps drawn from the mix's RNG.
func (m *kernelMix) recur(phase, period simtime.Duration) {
	r := &modelRecurrence{period: period}
	m.recs = append(m.recs, r)
	r.key = m.newKey(m.s.Now().Add(phase), true)
	occur := func() simtime.Duration {
		m.firing = r
		defer func() { m.firing = nil }()
		m.arrive(r.key)
		m.act(3)
		if !r.stopped && m.rng.Intn(8) == 0 {
			r.stop()
			r.stopped = true
		}
		if r.stopped {
			return -1 // ignored once stopped
		}
		gap := r.period
		if gap == 0 {
			gap = simtime.Duration(1 + m.rng.Intn(6))
		}
		// The re-arm is the next scheduling call the kernel makes.
		r.key = m.newKey(m.s.Now().Add(gap), true)
		return gap
	}
	if period > 0 {
		r.stop = m.s.Every(phase, period, func() { occur() })
	} else {
		r.stop = m.s.Recur(phase, occur)
	}
}

func TestKernelMatchesReferenceOrder(t *testing.T) {
	ties := 0
	for seed := uint64(1); seed <= 200; seed++ {
		ties += checkKernelMix(t, seed)
	}
	if ties == 0 {
		t.Error("the mixes never tied a recurring and a one-shot event in time")
	}
}

// checkKernelMix runs the mix of one seed against the model and returns
// its count of mixed-heap ties.
func checkKernelMix(t *testing.T, seed uint64) int {
	m := &kernelMix{t: t, seed: seed, s: New(seed), rng: NewRNG(seed ^ 0x9e3779b97f4a7c15)}
	for i := 0; i < 3; i++ {
		m.recur(simtime.Duration(m.rng.Intn(4)), simtime.Duration(m.rng.Intn(2)*(1+m.rng.Intn(4))))
		m.oneShot(simtime.Duration(m.rng.Intn(4)), 0)
	}
	const deadline = 200
	m.s.RunUntil(deadline)
	if m.s.Now() != deadline {
		m.errorf("clock = %v after RunUntil, want %v", m.s.Now(), simtime.Time(deadline))
	}
	// The reference order: every scheduled, uncanceled event up to the
	// deadline, sorted by (at, seq).
	var want []int
	for key, ev := range m.events {
		if !ev.canceled && ev.at <= deadline {
			want = append(want, key)
		}
	}
	sort.Slice(want, func(i, j int) bool {
		a, b := m.events[want[i]], m.events[want[j]]
		if a.at != b.at {
			return a.at < b.at
		}
		return a.seq < b.seq
	})
	if fmt.Sprint(m.delivered) != fmt.Sprint(want) {
		m.errorf("delivered %v,\nreference %v", m.delivered, want)
	}
	if got := m.s.Pending(); got != m.pending {
		m.errorf("Pending() = %d at the deadline, model %d", got, m.pending)
	}
	// Stop everything: nothing may remain pending or fire.
	for _, r := range m.recs {
		r.stop()
	}
	for _, key := range m.live {
		m.s.Cancel(m.refs[key])
	}
	before := m.s.Executed()
	m.s.Run()
	if m.s.Executed() != before || m.s.Pending() != 0 {
		m.errorf("after stopping all: %d more events fired, %d pending", m.s.Executed()-before, m.s.Pending())
	}
	for _, key := range m.live {
		if m.refs[key].Valid() {
			m.errorf("canceled ref %d still valid", key)
		}
	}
	for _, r := range m.stale {
		if r.Valid() {
			m.errorf("stale EventRef valid after the run")
		}
	}
	return m.mixedTies
}

func TestRecurPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"negative phase": func() { New(1).Recur(-1, func() simtime.Duration { return 1 }) },
		"nil recurrence": func() { New(1).Recur(0, nil) },
		"zero gap": func() {
			s := New(1)
			s.Recur(0, func() simtime.Duration { return 0 })
			s.Run()
		},
		"negative gap": func() {
			s := New(1)
			s.Recur(0, func() simtime.Duration { return -5 })
			s.Run()
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRecurGapsAndStop(t *testing.T) {
	s := New(1)
	gaps := []simtime.Duration{3, 1, 4, 1, 5}
	var at []simtime.Time
	var stop func()
	stop = s.Recur(2, func() simtime.Duration {
		at = append(at, s.Now())
		if len(at) == len(gaps) {
			stop()
		}
		return gaps[len(at)-1]
	})
	s.Run()
	want := []simtime.Time{2, 5, 6, 10, 11}
	if fmt.Sprint(at) != fmt.Sprint(want) {
		t.Errorf("fired at %v, want %v", at, want)
	}
	if s.Pending() != 0 {
		t.Errorf("pending = %d after stop", s.Pending())
	}
	stop() // stopping a stopped recurrence is a no-op
}

// TestRecurringSteadyStateZeroAlloc: once every recurrence has fired and
// the record pool has reached its high-water mark, re-arms and the
// one-shot events they trigger allocate nothing.
func TestRecurringSteadyStateZeroAlloc(t *testing.T) {
	s := New(7)
	var deliver Handler = func() {}
	for i := 0; i < 94; i++ {
		period := simtime.Duration(20<<(i%4)) * simtime.Millisecond
		if i%3 == 0 {
			s.Recur(simtime.Duration(i)*simtime.Millisecond, func() simtime.Duration {
				s.After(simtime.Duration(50+i)*simtime.Microsecond, deliver)
				return period + simtime.Duration(s.RNG().Exponential(float64(simtime.Millisecond)))
			})
			continue
		}
		s.Every(simtime.Duration(i)*simtime.Millisecond, period, func() {
			s.After(simtime.Duration(50+i)*simtime.Microsecond, deliver)
		})
	}
	s.RunFor(simtime.Second)
	if avg := testing.AllocsPerRun(10, func() { s.RunFor(200 * simtime.Millisecond) }); avg != 0 {
		t.Errorf("recurring steady state allocated %.1f times per 200 ms, want 0", avg)
	}
}
