package msg

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
)

func TestParseMeshWorkloadRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		mesh, gen, pattern string
		bytes, rounds      int
		want               string
	}{
		{"4y4", "eisa", "ring", 1, 1, `bad -mesh "4y4"; want e.g. 4x4`},
		{"0x4", "eisa", "ring", 1, 1, `bad -mesh "0x4"; want e.g. 4x4`},
		{"4x4", "eisa", "star", 1, 1, `unknown -workload "star"; want neighbors, hotspot or ring`},
		{"4x4", "eisa", "ring", 0, 1, `bad -bytes 0; want at least 1`},
		{"4x4", "eisa", "ring", 1, -2, `bad -rounds -2; want at least 1`},
		{"4x4", "EISA", "ring", 1, 1, `unknown -gen "EISA"; want eisa or xpress`},
		// 1,600 nodes need more kernel ring pages than a node's memory holds.
		{"40x40", "eisa", "ring", 1, 1, `bad -mesh "40x40": core: 1024 pages/node cannot hold 3198 kernel ring pages plus working memory`},
		// The first bad flag in that order is the one named.
		{"x", "foo", "star", 0, 0, `bad -mesh "x"; want e.g. 4x4`},
	} {
		_, err := ParseMeshWorkload(c.mesh, c.gen, c.pattern, c.bytes, c.rounds)
		if err == nil || err.Error() != c.want {
			t.Errorf("ParseMeshWorkload(%q, %q, %q, %d, %d) = %v, want %q",
				c.mesh, c.gen, c.pattern, c.bytes, c.rounds, err, c.want)
		}
	}
}

// TestMeshWorkloadPatterns runs each pattern on a 3x2 mesh: the link
// count is the pattern's, and every packet sent arrives.
func TestMeshWorkloadPatterns(t *testing.T) {
	for pattern, links := range map[string]int{"neighbors": 6, "hotspot": 5, "ring": 6} {
		wl, err := ParseMeshWorkload("3X2", "xpress", pattern, 300, 2)
		if err != nil {
			t.Fatal(err)
		}
		m := core.New(core.ConfigFor(wl.W, wl.H, wl.Gen))
		run, err := wl.Run(m)
		if err != nil {
			t.Fatalf("%s: %v", pattern, err)
		}
		if run.Links != links || run.Start <= 0 {
			t.Fatalf("%s: %d links from %v, want %d links after mapping", pattern, run.Links, run.Start, links)
		}
		var out, in uint64
		for _, n := range m.Nodes {
			out += n.NIC.Stats().PacketsOut
			in += n.NIC.Stats().PacketsIn
		}
		if out == 0 || out != in || m.Eng.Pending() != 0 {
			t.Fatalf("%s: %d packets out, %d in, %d events pending", pattern, out, in, m.Eng.Pending())
		}
	}
}

// TestMeshWorkloadReportsDrainFailure: a machine check raised after the
// last receive, while the workload drains, is returned, not dropped.
func TestMeshWorkloadReportsDrainFailure(t *testing.T) {
	wl, err := ParseMeshWorkload("2x2", "eisa", "ring", 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := core.New(core.ConfigFor(wl.W, wl.H, wl.Gen))
	mc := &fault.MachineCheck{Node: 1, Kind: fault.CheckRingCorrupt, Detail: "planted"}
	m.Eng.At(10*sim.Millisecond, func() { m.Eng.Fail(mc) })
	if _, err := wl.Run(m); !errors.Is(err, mc) {
		t.Fatalf("Run = %v, want the planted machine check", err)
	}
}
