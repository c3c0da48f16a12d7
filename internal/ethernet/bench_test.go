package ethernet

import (
	"fmt"
	"testing"

	"repro/internal/des"
)

// BenchmarkSwitchForward measures one unicast frame through a statically
// learned 8-port switch: the source station's uplink, the switch's
// learning check, FDB lookup and fabric relay, and the egress port.
func BenchmarkSwitchForward(b *testing.B) {
	sim := des.New(1)
	sw := NewSwitch(sim, SwitchConfig{Name: "sw", RelayLatency: ttechno, Kind: QueueFCFS})
	const n = 8
	st := make([]*Station, n)
	for i := range st {
		st[i] = NewStation(sim, fmt.Sprintf("es%d", i), StationAddr(i+1), sw, i, rate10M, 0, QueueFCFS, 0)
	}
	f := &Frame{Type: EtherTypeAvionics, PayloadLen: 64}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Dst = StationAddr((i+1)%n + 1)
		st[i%n].Send(f)
		sim.Run()
	}
}
