package des

import (
	"testing"

	"repro/internal/simtime"
)

// BenchmarkDES measures the kernel's hottest loop — schedule one event,
// deliver it, schedule the next — the shape every port serializer and
// periodic source reduces to. With the event free-list this path performs
// zero heap allocations per event.
func BenchmarkDES(b *testing.B) {
	sim := New(1)
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			sim.After(1000, tick)
		}
	}
	sim.At(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	sim.Run()
}

// BenchmarkDESFanOut measures bursts: each delivered event schedules four
// more (a frame arriving at a switch fans out to relay + serializer +
// IFG + receiver completion), bounded by recycling the fired events.
func BenchmarkDESFanOut(b *testing.B) {
	sim := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 4; j++ {
			sim.After(simtime.Duration(j+1), func() {})
		}
		sim.RunFor(10)
	}
}

// BenchmarkDESCancel measures the schedule-then-cancel path (shaper
// wake-ups and stopped periodic sources).
func BenchmarkDESCancel(b *testing.B) {
	sim := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref := sim.After(1000, func() {})
		sim.Cancel(ref)
	}
}

// BenchmarkDESRecurring measures the kernel under the shape of the
// paper's workload: 94 sources re-arming every 20–160 ms (a third of them
// with random gaps, the rest strictly periodic), each release followed by
// a short chain of one-shot events standing in for a frame's uplink
// transmission, switch relay and downlink transmission. So about 95
// events are pending at any time, nearly all of them far-future re-arms.
// One op is one delivered event.
func BenchmarkDESRecurring(b *testing.B) {
	sim := New(1)
	done := func() {}
	// 57.6 µs serializes a minimum frame at 10 Mbit/s.
	down := func() { sim.After(57600, done) }
	relay := func() { sim.After(140*simtime.Microsecond, down) }
	release := func() { sim.After(57600, relay) }
	for i := 0; i < 94; i++ {
		period := simtime.Duration(20<<(i%4)) * simtime.Millisecond
		phase := simtime.Duration(sim.RNG().Duration(int64(period)))
		if i%3 == 0 {
			sim.Recur(phase, func() simtime.Duration {
				release()
				return period + simtime.Duration(sim.RNG().Exponential(float64(5*simtime.Millisecond)))
			})
			continue
		}
		sim.Every(phase, period, release)
	}
	// Warm up: every source armed, the record pool at its high-water mark.
	sim.RunFor(simtime.Second)
	end := sim.Executed() + uint64(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for sim.Executed() < end {
		sim.Step()
	}
}
