package main

import (
	"syscall"
	"time"
	"unsafe"
)

// cpuNow is the CPU time the whole process has used so far: user plus
// system time of every thread, the Go runtime's own included. The kernel
// counts only time the process ran: time other processes held the CPU,
// and time the hypervisor stole from a virtual CPU (paravirtual steal
// accounting), are left out. On a shared host that time belongs to the
// neighbours, not to the program, so the benchmark's printed times are
// measured on this clock. The process runs on one P (see run), so with
// one caller and an idle host it reads as wall time does.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuMs is the process CPU time since c0, in milliseconds.
func cpuMs(c0 time.Duration) float64 {
	return float64((cpuNow() - c0).Nanoseconds()) / 1e6
}

// The host's speed drifts: on a shared virtual machine the same ops take
// up to twice the CPU time in one minute that they take in the next, as
// neighbours load the caches and cores the guest runs on. Every printed
// time is therefore scaled to a reference host speed. Between stretches
// of measured work the benchmark runs hostKernel, a fixed piece of work
// of its own, and a stretch's CPU times are multiplied by hostKernelRef
// over the kernel's median CPU time during the stretch. The kernel is a
// dependent walk over a 4 MiB table with lookups in a 16 Ki-entry map,
// the access pattern of the program's own analysis and simulation; a
// register-only loop tracked the program's time less well. The kernel is
// not code of the program under test, so a change to the program moves
// the scaled figures as it moves the raw ones; the raw figures are kept
// in each run's record.

// hostKernelRef is the kernel's CPU time at the reference speed: a fixed
// value near its median on the defining host when the benchmark was
// defined. Only the ratio to it matters.
const hostKernelRef = 1800 * time.Microsecond

var (
	kernelTable = func() []uint32 {
		const n = 1 << 20
		t := make([]uint32, n)
		x := uint32(2463534242)
		for i := range t {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			t[i] = x & (n - 1)
		}
		return t
	}()
	kernelMap = func() map[uint32]uint32 {
		m := make(map[uint32]uint32, 1<<14)
		for i := uint32(0); i < 1<<14; i++ {
			m[i*2654435761] = i
		}
		return m
	}()
	kernelSink uint32
)

// hostKernel runs the kernel once, allocating nothing, and returns the
// CPU time it took.
func hostKernel() time.Duration {
	c0 := cpuNow()
	p, acc := uint32(1), uint32(0)
	for range 100_000 {
		p = kernelTable[p]
		if v, ok := kernelMap[(p&(1<<14-1))*2654435761]; ok {
			acc += v
		}
		if acc&1 == 0 {
			acc = acc*31 + p
		} else {
			acc ^= p >> 3
		}
	}
	kernelSink += acc
	return cpuNow() - c0
}

// hostSpeed collects kernel timings over a stretch of work.
type hostSpeed struct{ samples []float64 }

// sample runs the kernel; call it between ops, outside measured time.
func (h *hostSpeed) sample() {
	h.samples = append(h.samples, float64(hostKernel()))
}

// scale returns the factor that takes the stretch's CPU times to the
// reference speed, and starts the next stretch. A stretch without a
// sample takes the factor 1.
func (h *hostSpeed) scale() float64 {
	if len(h.samples) == 0 {
		return 1
	}
	f := float64(hostKernelRef) / median(h.samples)
	h.samples = h.samples[:0]
	return f
}
