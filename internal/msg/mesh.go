package msg

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/nic"
	"repro/internal/phys"
	"repro/internal/sim"
)

// meshEventBudget bounds the drain that ends a mesh workload.
const meshEventBudget = 1_000_000_000

// MeshWorkload is the Go-level channel traffic that shrimp-sim,
// shrimp-trace and shrimp-top drive across a W×H machine: one channel
// per link of Pattern, and Rounds rounds of one Bytes-byte message on
// every link. The patterns are "neighbors" (every node sends to its
// east neighbor, wrapping within its row), "hotspot" (every other node
// sends to node 0) and "ring" (node i sends to node i+1 mod W×H).
type MeshWorkload struct {
	W, H    int
	Gen     nic.Generation
	Pattern string
	Bytes   int
	Rounds  int
}

// ParseMeshWorkload checks the mesh CLIs' shared flags: -mesh as WxH,
// -workload, -bytes and -rounds of at least 1, -gen eisa or xpress, and
// last that a W×H machine of that generation validates. The error names
// the first bad flag.
func ParseMeshWorkload(mesh, gen, pattern string, bytes, rounds int) (MeshWorkload, error) {
	wl := MeshWorkload{Pattern: pattern, Bytes: bytes, Rounds: rounds}
	if _, err := fmt.Sscanf(strings.ToLower(mesh), "%dx%d", &wl.W, &wl.H); err != nil || wl.W < 1 || wl.H < 1 {
		return wl, fmt.Errorf("bad -mesh %q; want e.g. 4x4", mesh)
	}
	switch pattern {
	case "neighbors", "hotspot", "ring":
	default:
		return wl, fmt.Errorf("unknown -workload %q; want neighbors, hotspot or ring", pattern)
	}
	if bytes < 1 {
		return wl, fmt.Errorf("bad -bytes %d; want at least 1", bytes)
	}
	if rounds < 1 {
		return wl, fmt.Errorf("bad -rounds %d; want at least 1", rounds)
	}
	switch gen {
	case "eisa":
		wl.Gen = nic.GenEISAPrototype
	case "xpress":
		wl.Gen = nic.GenXpress
	default:
		return wl, fmt.Errorf("unknown -gen %q; want eisa or xpress", gen)
	}
	// A mesh too large for the default node memory fails here, not as a
	// panic in core.New.
	if err := core.ConfigFor(wl.W, wl.H, wl.Gen).Validate(); err != nil {
		return wl, fmt.Errorf("bad -mesh %q: %v", mesh, err)
	}
	return wl, nil
}

// MeshRun is what a finished mesh workload reports.
type MeshRun struct {
	Links int      // channels, one per link
	Start sim.Time // the first send, after every channel is mapped
}

// Run maps the workload's channels on m, a machine of the workload's
// mesh, then runs its rounds: each round sends on every channel and
// then receives on every channel in the same order. Last it drains m.
// The error is the first failed mapping, send or receive, or the
// drain's: a machine check or an exhausted event budget.
func (wl MeshWorkload) Run(m *core.Machine) (MeshRun, error) {
	n := wl.W * wl.H
	eps := make([]Endpoint, n)
	for i := range eps {
		eps[i] = NewEndpoint(m.Node(i))
	}
	var links [][2]int
	switch wl.Pattern {
	case "neighbors":
		for i := 0; i < n; i++ {
			x, y := i%wl.W, i/wl.W
			if j := y*wl.W + (x+1)%wl.W; j != i {
				links = append(links, [2]int{i, j})
			}
		}
	case "hotspot":
		for i := 1; i < n; i++ {
			links = append(links, [2]int{i, 0})
		}
	case "ring":
		for i := 0; i < n; i++ {
			links = append(links, [2]int{i, (i + 1) % n})
		}
	}
	channels := make([]*Channel, len(links))
	pages := (wl.Bytes+phys.PageSize-1)/phys.PageSize + 1
	for i, l := range links {
		ch, err := NewChannel(m, eps[l[0]], eps[l[1]], pages)
		if err != nil {
			return MeshRun{}, fmt.Errorf("map %d->%d: %w", l[0], l[1], err)
		}
		channels[i] = ch
	}
	payload := make([]byte, wl.Bytes)
	for i := range payload {
		payload[i] = byte(i * 17)
	}
	run := MeshRun{Links: len(links), Start: m.Now()}
	for r := 0; r < wl.Rounds; r++ {
		for _, ch := range channels {
			if err := ch.Send(payload); err != nil {
				return run, fmt.Errorf("send: %w", err)
			}
		}
		for i, ch := range channels {
			got, err := ch.Recv()
			if err != nil {
				return run, fmt.Errorf("recv: %w", err)
			}
			if len(got) != wl.Bytes {
				return run, fmt.Errorf("link %d: short message %d", i, len(got))
			}
		}
	}
	return run, m.Eng.DrainBudget(meshEventBudget)
}
