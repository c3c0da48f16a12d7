package des

import (
	"testing"
	"testing/quick"

	"repro/internal/simtime"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if s.Now() != 30 {
		t.Errorf("clock = %v, want 30", s.Now())
	}
	if s.Executed() != 3 {
		t.Errorf("executed = %d, want 3", s.Executed())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(100, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated FIFO: order = %v", order)
		}
	}
}

func TestAfterAndNow(t *testing.T) {
	s := New(1)
	var at simtime.Time
	s.After(5*simtime.Millisecond, func() {
		at = s.Now()
		s.After(simtime.Millisecond, func() { at = s.Now() })
	})
	s.Run()
	if at != simtime.Time(6*simtime.Millisecond) {
		t.Errorf("nested After fired at %v, want 6ms", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New(1)
	s.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		s.At(50, func() {})
	})
	s.Run()
}

func TestNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil handler should panic")
		}
	}()
	New(1).At(0, nil)
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative delay should panic")
		}
	}()
	New(1).After(-1, func() {})
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	ref := s.At(10, func() { fired = true })
	if !ref.Valid() {
		t.Fatal("fresh ref should be valid")
	}
	s.Cancel(ref)
	if ref.Valid() {
		t.Error("canceled ref should be invalid")
	}
	s.Cancel(ref) // double-cancel is a no-op
	s.Run()
	if fired {
		t.Error("canceled event fired")
	}
	if s.Pending() != 0 {
		t.Errorf("pending = %d, want 0", s.Pending())
	}
}

func TestCancelOneOfMany(t *testing.T) {
	s := New(1)
	var got []int
	refs := make([]EventRef, 5)
	for i := 0; i < 5; i++ {
		i := i
		refs[i] = s.At(simtime.Time(i*10), func() { got = append(got, i) })
	}
	s.Cancel(refs[2])
	s.Run()
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestCancelAfterFireIsNoOp(t *testing.T) {
	s := New(1)
	ref := s.At(10, func() {})
	s.Run()
	if ref.Valid() {
		t.Error("fired ref should be invalid")
	}
	// The fired record is back on the free list; a later schedule reuses
	// it. Canceling the stale ref must not kill the new event.
	fired := false
	s.At(20, func() { fired = true })
	s.Cancel(ref)
	s.Run()
	if !fired {
		t.Error("stale Cancel killed a recycled event")
	}
}

func TestPendingCounter(t *testing.T) {
	s := New(1)
	refs := make([]EventRef, 6)
	for i := range refs {
		refs[i] = s.At(simtime.Time(10*(i+1)), func() {})
	}
	if s.Pending() != 6 {
		t.Fatalf("pending = %d, want 6", s.Pending())
	}
	s.Cancel(refs[1])
	s.Cancel(refs[1]) // double cancel must not double-decrement
	if s.Pending() != 5 {
		t.Errorf("pending after cancel = %d, want 5", s.Pending())
	}
	s.RunUntil(30) // delivers events at 10 and 30 (20 was canceled)
	if s.Pending() != 3 {
		t.Errorf("pending after partial run = %d, want 3", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 {
		t.Errorf("pending after drain = %d, want 0", s.Pending())
	}
}

func TestEventPoolRecycles(t *testing.T) {
	// After a schedule/fire cycle the kernel must reuse records instead
	// of growing: run many one-event generations and check the free list
	// stays bounded at the high-water mark of concurrently pending events.
	s := New(1)
	for i := 0; i < 1000; i++ {
		s.After(1, func() {})
		s.Run()
	}
	if len(s.pool.free) > 2 {
		t.Errorf("free list grew to %d records for 1 pending event", len(s.pool.free))
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var fired []simtime.Time
	for _, at := range []simtime.Time{10, 20, 30, 40} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v before deadline 25", fired)
	}
	if s.Now() != 25 {
		t.Errorf("clock = %v, want exactly 25", s.Now())
	}
	s.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired %v after second RunUntil", fired)
	}
	if s.Now() != 100 {
		t.Errorf("clock = %v, want 100", s.Now())
	}
}

func TestRunFor(t *testing.T) {
	s := New(1)
	n := 0
	s.Every(0, 10*simtime.Millisecond, func() { n++ })
	s.RunFor(95 * simtime.Millisecond)
	if n != 10 { // t = 0,10,...,90
		t.Errorf("ticks = %d, want 10", n)
	}
}

func TestEveryStop(t *testing.T) {
	s := New(1)
	n := 0
	var stop func()
	stop = s.Every(0, simtime.Millisecond, func() {
		n++
		if n == 3 {
			stop()
		}
	})
	s.RunFor(simtime.Second)
	if n != 3 {
		t.Errorf("ticks after stop = %d, want 3", n)
	}
	if s.Pending() != 0 {
		t.Errorf("pending = %d after stop", s.Pending())
	}
}

func TestEveryPhase(t *testing.T) {
	s := New(1)
	var first simtime.Time = -1
	s.Every(7*simtime.Millisecond, 20*simtime.Millisecond, func() {
		if first < 0 {
			first = s.Now()
		}
	})
	s.RunFor(simtime.Second)
	if first != simtime.Time(7*simtime.Millisecond) {
		t.Errorf("first tick at %v, want 7ms", first)
	}
}

func TestEveryZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero period should panic")
		}
	}()
	New(1).Every(0, 0, func() {})
}

func TestTracer(t *testing.T) {
	s := New(1)
	var seen []simtime.Time
	s.SetTracer(func(at simtime.Time) { seen = append(seen, at) })
	s.At(5, func() {})
	s.At(9, func() {})
	s.Run()
	if len(seen) != 2 || seen[0] != 5 || seen[1] != 9 {
		t.Errorf("tracer saw %v", seen)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed uint64) []uint64 {
		s := New(seed)
		var out []uint64
		// A little chaotic model: events reschedule themselves with random
		// delays drawn from the simulator's RNG.
		var step Handler
		count := 0
		step = func() {
			count++
			out = append(out, s.RNG().Uint64()%1000, uint64(s.Now()))
			if count < 200 {
				s.After(simtime.Duration(s.RNG().Duration(int64(simtime.Millisecond))), step)
			}
		}
		s.At(0, step)
		s.Run()
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestRNGIntnUnbiasedRange(t *testing.T) {
	r := NewRNG(7)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(11)
	p := r.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGExponentialPositive(t *testing.T) {
	r := NewRNG(13)
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.Exponential(5)
		if v < 0 {
			t.Fatalf("negative exponential sample %v", v)
		}
		sum += v
	}
	mean := sum / n
	if mean < 4.5 || mean > 5.5 {
		t.Errorf("empirical mean %v too far from 5", mean)
	}
}

func TestRNGPanics(t *testing.T) {
	r := NewRNG(1)
	for name, f := range map[string]func(){
		"Intn(0)":      func() { r.Intn(0) },
		"Duration(0)":  func() { r.Duration(0) },
		"Duration(-1)": func() { r.Duration(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMul64(t *testing.T) {
	tests := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{1 << 32, 1 << 32, 1, 0},
		{0xffffffffffffffff, 2, 1, 0xfffffffffffffffe},
		{0xffffffffffffffff, 0xffffffffffffffff, 0xfffffffffffffffe, 1},
	}
	for _, tc := range tests {
		hi, lo := mul64(tc.a, tc.b)
		if hi != tc.hi || lo != tc.lo {
			t.Errorf("mul64(%#x,%#x) = (%#x,%#x), want (%#x,%#x)", tc.a, tc.b, hi, lo, tc.hi, tc.lo)
		}
	}
}

// Property: clock never goes backwards across an arbitrary schedule.
func TestClockMonotone(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New(99)
		last := simtime.Time(-1)
		ok := true
		s.SetTracer(func(at simtime.Time) {
			if at < last {
				ok = false
			}
			last = at
		})
		for _, d := range delays {
			s.At(simtime.Time(d), func() {})
		}
		s.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Every fires exactly floor((horizon-phase)/period)+1 times when
// phase ≤ horizon.
func TestEveryCount(t *testing.T) {
	f := func(phaseRaw, periodRaw uint16) bool {
		phase := simtime.Duration(phaseRaw)
		period := simtime.Duration(periodRaw%1000) + 1
		horizon := simtime.Duration(100_000)
		s := New(5)
		n := int64(0)
		s.Every(phase, period, func() { n++ })
		s.RunFor(horizon)
		var want int64
		if phase <= horizon {
			want = int64((horizon-phase)/period) + 1
		}
		return n == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
