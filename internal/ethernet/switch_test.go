package ethernet

import (
	"testing"

	"repro/internal/des"
	"repro/internal/simtime"
)

const ttechno = 140 * simtime.Microsecond

func twoStations(t *testing.T, kind QueueKind) (*des.Simulator, *Switch, *Station, *Station) {
	t.Helper()
	sim := des.New(1)
	sw := NewSwitch(sim, SwitchConfig{Name: "sw", RelayLatency: ttechno, Kind: kind})
	a := NewStation(sim, "a", StationAddr(1), sw, 1, rate10M, 0, kind, 0)
	b := NewStation(sim, "b", StationAddr(2), sw, 2, rate10M, 0, kind, 0)
	return sim, sw, a, b
}

func TestSwitchEndToEndTiming(t *testing.T) {
	sim, _, a, b := twoStations(t, QueueFCFS)
	var at simtime.Time = -1
	b.OnReceive = func(f *Frame) { at = sim.Now() }
	sim.At(0, func() {
		a.Send(&Frame{Dst: StationAddr(2), Type: EtherTypeAvionics, PayloadLen: 8})
	})
	sim.Run()
	// serialize (57.6µs) + t_techno (140µs) + serialize (57.6µs).
	want := simtime.Time(57600 + 140000 + 57600)
	if at != want {
		t.Errorf("delivered at %v, want %v", at, want)
	}
	if b.Received != 1 {
		t.Errorf("received = %d", b.Received)
	}
}

func TestSwitchUnicastIsolation(t *testing.T) {
	sim, sw, a, b := twoStations(t, QueueFCFS)
	c := NewStation(sim, "c", StationAddr(3), sw, 3, rate10M, 0, QueueFCFS, 0)
	got := map[string]int{}
	b.OnReceive = func(f *Frame) { got["b"]++ }
	c.OnReceive = func(f *Frame) { got["c"]++ }
	sim.At(0, func() {
		a.Send(&Frame{Dst: StationAddr(2), PayloadLen: 8})
	})
	sim.Run()
	if got["b"] != 1 || got["c"] != 0 {
		t.Errorf("unicast leaked: %v", got)
	}
	if sw.Flooded != 0 {
		t.Errorf("flooded = %d on a statically learned network", sw.Flooded)
	}
}

func TestSwitchBroadcastFloods(t *testing.T) {
	sim, sw, a, b := twoStations(t, QueueFCFS)
	c := NewStation(sim, "c", StationAddr(3), sw, 3, rate10M, 0, QueueFCFS, 0)
	got := map[string]int{}
	a.OnReceive = func(f *Frame) { got["a"]++ }
	b.OnReceive = func(f *Frame) { got["b"]++ }
	c.OnReceive = func(f *Frame) { got["c"]++ }
	sim.At(0, func() {
		a.Send(&Frame{Dst: Broadcast, PayloadLen: 8})
	})
	sim.Run()
	if got["a"] != 0 {
		t.Error("broadcast reflected to sender")
	}
	if got["b"] != 1 || got["c"] != 1 {
		t.Errorf("broadcast delivery: %v", got)
	}
	if sw.Flooded != 1 {
		t.Errorf("flooded = %d, want 1", sw.Flooded)
	}
}

func TestSwitchUnknownUnicastFloodsThenLearns(t *testing.T) {
	sim := des.New(1)
	sw := NewSwitch(sim, SwitchConfig{Name: "sw", Kind: QueueFCFS})
	// Attach raw ports without static learning.
	var toA, toB []*Frame
	inA := sw.AttachPort(1, rate10M, 0, func(f *Frame) { toA = append(toA, f) })
	inB := sw.AttachPort(2, rate10M, 0, func(f *Frame) { toB = append(toB, f) })
	_ = inB
	addrA, addrB := StationAddr(1), StationAddr(2)
	sim.At(0, func() {
		// A sends to unknown B: flood (reaches port 2), learn A on port 1.
		inA(&Frame{Src: addrA, Dst: addrB, PayloadLen: 8})
	})
	sim.RunFor(simtime.Second)
	if len(toB) != 1 {
		t.Fatalf("unknown unicast not flooded to B: %d", len(toB))
	}
	if sw.Flooded != 1 {
		t.Errorf("flooded = %d", sw.Flooded)
	}
	if id, ok := sw.Lookup(addrA); !ok || id != 1 {
		t.Errorf("source not learned: (%d, %v)", id, ok)
	}
	sim.At(sim.Now(), func() {
		// B replies: now unicast straight back to port 1, no flood.
		inB(&Frame{Src: addrB, Dst: addrA, PayloadLen: 8})
	})
	sim.Run()
	if len(toA) != 1 || sw.Flooded != 1 {
		t.Errorf("reply not unicast: toA=%d flooded=%d", len(toA), sw.Flooded)
	}
}

func TestSwitchRelearnsMovedSource(t *testing.T) {
	// A source learned on one port that shows up on another must move
	// there: learning writes the FDB whenever the entry changes.
	sim := des.New(1)
	sw := NewSwitch(sim, SwitchConfig{Name: "sw", Kind: QueueFCFS})
	var toA, toC []*Frame
	inA := sw.AttachPort(1, rate10M, 0, func(f *Frame) { toA = append(toA, f) })
	inB := sw.AttachPort(2, rate10M, 0, func(*Frame) {})
	sw.AttachPort(4, rate10M, 0, func(f *Frame) { toC = append(toC, f) })
	sw.Learn(StationAddr(3), 4)
	mover := StationAddr(9)
	sim.At(0, func() { inA(&Frame{Src: mover, Dst: StationAddr(3), PayloadLen: 8}) })
	sim.Run()
	if id, ok := sw.Lookup(mover); !ok || id != 1 {
		t.Fatalf("first sighting: Lookup = (%d, %v), want (1, true)", id, ok)
	}
	sim.At(sim.Now(), func() { inB(&Frame{Src: mover, Dst: StationAddr(3), PayloadLen: 8}) })
	sim.Run()
	if id, ok := sw.Lookup(mover); !ok || id != 2 {
		t.Fatalf("after moving: Lookup = (%d, %v), want (2, true)", id, ok)
	}
	// Frames for the mover now leave on port 2, not port 1.
	sim.At(sim.Now(), func() { inA(&Frame{Src: StationAddr(5), Dst: mover, PayloadLen: 8}) })
	sim.Run()
	if len(toA) != 0 || len(toC) != 2 || sw.Flooded != 0 {
		t.Errorf("toA=%d toC=%d flooded=%d, want 0, 2, 0", len(toA), len(toC), sw.Flooded)
	}
	if got := sw.OutputPort(2).Stats().Sent; got != 1 {
		t.Errorf("port 2 sent %d frames, want 1", got)
	}
}

func TestSwitchCongestionQueues(t *testing.T) {
	// Two stations blast at a third: its downlink is the bottleneck and
	// must serialize both flows without loss (unbounded queue).
	sim := des.New(1)
	sw := NewSwitch(sim, SwitchConfig{Name: "sw", RelayLatency: ttechno, Kind: QueueFCFS})
	a := NewStation(sim, "a", StationAddr(1), sw, 1, rate10M, 0, QueueFCFS, 0)
	b := NewStation(sim, "b", StationAddr(2), sw, 2, rate10M, 0, QueueFCFS, 0)
	c := NewStation(sim, "c", StationAddr(3), sw, 3, rate10M, 0, QueueFCFS, 0)
	got := 0
	c.OnReceive = func(f *Frame) { got++ }
	const n = 50
	sim.At(0, func() {
		for i := 0; i < n; i++ {
			a.Send(&Frame{Dst: StationAddr(3), PayloadLen: 500})
			b.Send(&Frame{Dst: StationAddr(3), PayloadLen: 500})
		}
	})
	sim.Run()
	if got != 2*n {
		t.Errorf("delivered %d of %d", got, 2*n)
	}
	port3 := sw.OutputPort(3)
	if port3.Queue().MaxBacklog() == 0 {
		t.Error("no queueing observed at the bottleneck port")
	}
	if port3.Stats().Sent != 2*n {
		t.Errorf("port sent %d", port3.Stats().Sent)
	}
}

func TestSwitchDropsWhenBufferBounded(t *testing.T) {
	sim := des.New(1)
	sw := NewSwitch(sim, SwitchConfig{Name: "sw", Kind: QueueFCFS, QueueCapacity: simtime.Bytes(200)})
	a := NewStation(sim, "a", StationAddr(1), sw, 1, rate10M, 0, QueueFCFS, 0)
	b := NewStation(sim, "b", StationAddr(2), sw, 2, rate10M, 0, QueueFCFS, 0)
	NewStation(sim, "c", StationAddr(3), sw, 3, rate10M, 0, QueueFCFS, 0)
	sim.At(0, func() {
		// Two senders converge on c's downlink: arrival rate 2× the drain
		// rate, so the 200 B output buffer must overflow.
		for i := 0; i < 20; i++ {
			a.Send(&Frame{Dst: StationAddr(3), PayloadLen: 100})
			b.Send(&Frame{Dst: StationAddr(3), PayloadLen: 100})
		}
	})
	sim.Run()
	if d := sw.OutputPort(3).Queue().Drops(); d.Frames == 0 {
		t.Error("bounded buffer never dropped under overload — the loss mode the paper warns about")
	}
}

func TestSwitchPriorityOutputQueues(t *testing.T) {
	sim := des.New(1)
	sw := NewSwitch(sim, SwitchConfig{Name: "sw", RelayLatency: 0, Kind: QueuePriority})
	a := NewStation(sim, "a", StationAddr(1), sw, 1, rate10M, 0, QueuePriority, 0)
	b := NewStation(sim, "b", StationAddr(2), sw, 2, rate10M, 0, QueuePriority, 0)
	_ = b
	var order []PCP
	bRecv := NewStation(sim, "c", StationAddr(3), sw, 3, rate10M, 0, QueuePriority, 0)
	bRecv.OnReceive = func(f *Frame) { order = append(order, f.Priority) }
	sim.At(0, func() {
		// Three low frames then one urgent; at the switch output port the
		// urgent one must overtake the queued low ones.
		for i := 0; i < 3; i++ {
			a.Send(&Frame{Dst: StationAddr(3), Tagged: true, Priority: PCPOfClass(3), PayloadLen: 1000})
		}
		a.Send(&Frame{Dst: StationAddr(3), Tagged: true, Priority: PCPOfClass(0), PayloadLen: 8})
	})
	sim.Run()
	if len(order) != 4 {
		t.Fatalf("%d deliveries", len(order))
	}
	// The station uplink is also priority-queued, so the urgent frame
	// overtakes already there; it must arrive no later than second.
	pos := -1
	for i, p := range order {
		if ClassOfPCP(p) == 0 {
			pos = i
		}
	}
	if pos > 1 {
		t.Errorf("urgent frame delivered at position %d: %v", pos, order)
	}
}

func TestSwitchPanics(t *testing.T) {
	sim := des.New(1)
	sw := NewSwitch(sim, SwitchConfig{Kind: QueueFCFS})
	sw.AttachPort(1, rate10M, 0, func(*Frame) {})
	for name, fn := range map[string]func(){
		"nil sim":        func() { NewSwitch(nil, SwitchConfig{}) },
		"neg latency":    func() { NewSwitch(sim, SwitchConfig{RelayLatency: -1}) },
		"dup port":       func() { sw.AttachPort(1, rate10M, 0, func(*Frame) {}) },
		"neg port":       func() { sw.AttachPort(-1, rate10M, 0, func(*Frame) {}) },
		"learn bad port": func() { sw.Learn(StationAddr(1), 99) },
		"learn gap port": func() { sw.Learn(StationAddr(1), 0) },
		"bad out port":   func() { sw.OutputPort(42) },
		"neg out port":   func() { sw.OutputPort(-1) },
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

func TestSwitchPortIDs(t *testing.T) {
	sim := des.New(1)
	sw := NewSwitch(sim, SwitchConfig{Kind: QueueFCFS})
	for _, id := range []int{5, 1, 3} {
		sw.AttachPort(id, rate10M, 0, func(*Frame) {})
	}
	ids := sw.PortIDs()
	want := []int{1, 3, 5}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("PortIDs = %v", ids)
		}
	}
	if sw.Config().Kind != QueueFCFS {
		t.Error("Config accessor broken")
	}
}

func TestStationSendStampsSource(t *testing.T) {
	sim, _, a, b := twoStations(t, QueueFCFS)
	var src Addr
	b.OnReceive = func(f *Frame) { src = f.Src }
	sim.At(0, func() {
		a.Send(&Frame{Dst: StationAddr(2), PayloadLen: 8}) // Src left zero
	})
	sim.Run()
	if src != a.Addr() {
		t.Errorf("source = %v, want %v", src, a.Addr())
	}
	if a.Name() != "a" {
		t.Error("Name accessor broken")
	}
	if a.Uplink() == nil {
		t.Error("Uplink accessor broken")
	}
}

func TestQueueKindString(t *testing.T) {
	if QueueFCFS.String() != "fcfs" || QueuePriority.String() != "priority" {
		t.Error("QueueKind strings broken")
	}
	if QueueKind(9).String() == "" {
		t.Error("unknown kind should format")
	}
}
