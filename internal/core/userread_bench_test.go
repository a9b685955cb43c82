package core

import (
	"testing"

	"repro/internal/nic"
	"repro/internal/phys"
)

// BenchmarkUserReadBytes times the harness copy-out a Go-level
// Channel.Recv performs: one 4 KB page read through the micro-TLB and
// the cache into a caller-owned buffer. It must not allocate.
func BenchmarkUserReadBytes(b *testing.B) {
	m := New(ConfigFor(2, 1, nic.GenEISAPrototype))
	n := m.Node(0)
	p := n.K.CreateProcess()
	va, err := p.AllocPages(1)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, phys.PageSize)
	b.ReportAllocs()
	b.SetBytes(phys.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.UserReadBytes(p, va, buf); err != nil {
			b.Fatal(err)
		}
	}
}
