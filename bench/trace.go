package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"slices"
	"strings"
	"time"
)

// spans accumulates host time per root entry point the benchmark calls.
// A nil *spans records nothing, so the untraced path pays a nil check.
type spans struct{ total map[string]time.Duration }

func newSpans() *spans { return &spans{total: map[string]time.Duration{}} }

func (s *spans) start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

func (s *spans) stop(name string, t time.Time) {
	if s != nil {
		s.total[name] += time.Since(t)
	}
}

func (s *spans) ms(name string) float64 { return float64(s.total[name]) / 1e6 }

// Root calls the ops make (reported per op) and the ones set-up makes
// (reported per set-up), as call.<name>_ms.
var (
	opCalls = []string{"table1", "baseline", "latency_sweep", "bandwidth_sweep", "ablations",
		"send", "recv", "drain", "avail", "loss_sweep", "overlap_single", "overlap_blocked"}
	setupCalls = []string{"new", "channels"}
)

// packages are the simulator's layers: the packages under internal/.
var packages = []string{"bus", "cache", "core", "exp", "fault", "isa", "kernel", "mesh", "msg",
	"nic", "nipt", "nx", "obs", "packet", "phys", "sim", "trace", "vm"}

// layers are the buckets CPU samples are attributed to, reported as
// cpu.<layer>: the packages, then gc for stacks with no repro frame
// (collector, scheduler), bench for stacks whose only repro frames are
// this command or the root package, and other for any internal package
// not listed.
var layers = append(append([]string(nil), packages...), "gc", "bench", "other")

// layerOf attributes one stack, leaf first, to its innermost
// repro/internal/<pkg> frame, so runtime helpers such as mallocgc or
// memmove count toward the layer that called them.
func layerOf(stack []string) string {
	bench := false
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			if slices.Contains(packages, pkg) {
				return pkg
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro.") {
			bench = true
		}
	}
	if bench {
		return "bench"
	}
	return "gc"
}

// parseTraces reads `go tool pprof -traces` output and returns the CPU
// time attributed to each layer. After the header, samples are separated
// by lines of dashes; a sample's first line holds its value and leaf
// frame, and each following line one caller.
func parseTraces(r io.Reader) (map[string]time.Duration, error) {
	out := map[string]time.Duration{}
	var stack []string
	var value time.Duration
	inBody := false
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) == 1 && strings.HasPrefix(fields[0], "-----------+"):
			if stack != nil {
				out[layerOf(stack)] += value
			}
			stack, inBody = nil, true
		case !inBody || len(fields) == 0:
		case stack == nil:
			v, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("malformed sample line %q", sc.Text())
			}
			value, stack = v, []string{fields[1]}
		default:
			stack = append(stack, fields[0])
		}
	}
	if stack != nil {
		out[layerOf(stack)] += value
	}
	return out, sc.Err()
}

// shares turns per-layer CPU time into fractions of the total; every
// layer is present and the fractions sum to 1.
func shares(byLayer map[string]time.Duration) (map[string]float64, error) {
	var total time.Duration
	for _, v := range byLayer {
		total += v
	}
	if total <= 0 {
		return nil, errors.New("CPU profile holds no samples")
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = float64(byLayer[l]) / float64(total)
	}
	return out, nil
}

// profileShares decodes CPU profiles with the toolchain's pprof, which
// merges them, and returns each layer's share of their samples.
func profileShares(paths []string) (map[string]float64, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces", "-symbolize=none"}, paths...)...)
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	byLayer, err := parseTraces(bytes.NewReader(text))
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return shares(byLayer)
}
