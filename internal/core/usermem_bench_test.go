package core

import (
	"testing"

	"repro/internal/nic"
	"repro/internal/nipt"
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

// BenchmarkUserWriteBytes times the harness copy-in a Go-level
// Channel.Send performs: one 4 KB page written into a blocked-write
// mapping on a 2-node EISA machine, then the machine drained. Most words
// land in store runs (cache.StoreRun); the rest, and the drain, are the
// engine events every such write schedules. It must not allocate.
func BenchmarkUserWriteBytes(b *testing.B) {
	m := New(ConfigFor(2, 1, nic.GenEISAPrototype))
	src, dst := m.Node(0), m.Node(1)
	p, q := src.K.CreateProcess(), dst.K.CreateProcess()
	va, err := p.AllocPages(1)
	if err != nil {
		b.Fatal(err)
	}
	rva, err := q.AllocPages(1)
	if err != nil {
		b.Fatal(err)
	}
	m.MustMap(p, va, phys.PageSize, dst.ID, q.PID, rva, nipt.BlockedWriteAU)
	buf := make([]byte, phys.PageSize)
	for i := range buf {
		buf[i] = byte(i)
	}
	b.ReportAllocs()
	b.SetBytes(phys.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.UserWriteBytes(p, va, buf); err != nil {
			b.Fatal(err)
		}
		if err := m.RunUntilIdle(1_000_000); err != nil {
			b.Fatal(err)
		}
	}
}
