package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	shrimp "repro"
)

// counts are the simulated quantities one op produced, summed over the
// results the root entry points hand back. The simulator is
// deterministic, so equal inputs give equal counts on any host.
type counts struct {
	Events, Packets, Retransmits, Acks, PeerDowns, MapsTorn uint64
}

func (c *counts) add(o counts) {
	c.Events += o.Events
	c.Packets += o.Packets
	c.Retransmits += o.Retransmits
	c.Acks += o.Acks
	c.PeerDowns += o.PeerDowns
	c.MapsTorn += o.MapsTorn
}

// An op runs one unit of a workload. Its inputs are a pure function of
// the run's seed and i mod the workload's cycle, so op i must reproduce
// op i-cycle exactly. It returns its counts and an FNV-1a digest of its
// simulated outputs, taken through their printed form (what the
// repository's commands show users), or the first check that failed.
type op func(i int, sp *spans) (counts, uint64, error)

// A workload builds whatever its ops share and returns the op. small
// shrinks the op for tests. sp records host time spent in the root calls
// set-up makes; it may be nil.
type workload struct {
	name string
	// cycle is the number of distinct op inputs; a run times whole
	// cycles, so per-op counts and the run digest do not depend on how
	// many ops fit in the run.
	cycle int
	setup func(seed uint64, small bool, sp *spans) (op, error)
}

var workloads = []workload{
	{"paper", 1, setupPaper},
	{"allreduce-16x16", 8, setupAllreduce},
	{"faults", 8, setupFaults},
	{"overlap-isa", 1, setupOverlap},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opRand is the input stream of op i: a function of the seed and the
// op's place in the cycle only.
func opRand(seed uint64, i, cycle int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(i%cycle)))
}

var gens = [2]shrimp.Generation{shrimp.GenEISAPrototype, shrimp.GenXpress}

// paperTable1 is Table 1 of the paper: instructions at the source and
// the destination of each primitive, identical on both generations.
var paperTable1 = []struct {
	name      string
	src, dest uint64
}{
	{"single buffering", 4, 5},
	{"single buffering + copy", 4, 17},
	{"double buffering (case 1)", 1, 1},
	{"double buffering (case 2)", 3, 5},
	{"double buffering (case 3)", 5, 5},
	{"deliberate-update transfer", 15, 0},
	{"csend and crecv", 73, 78},
}

// Expected §5.1 results per generation (EISA, Xpress): corner-to-corner
// store latency on the 4×4 mesh and the 4 KB deliberate-update plateau.
var (
	paperWorstLatency = [2]shrimp.Time{1_941_213, 857_143} // ps: 1.941 µs, 0.857 µs
	paperPlateau      = [2]string{"30.6", "68.3"}          // MB/s
)

var bandwidthSizes = []int{64, 128, 256, 512, 1024, 2048, 4096}

func setupPaper(uint64, bool, *spans) (op, error) { return paperOp, nil }

// paperOp is shrimp-table1 plus shrimp-hwperf -exp all: every §5
// experiment the repository reproduces, sweeps on the default worker
// pool.
func paperOp(_ int, sp *spans) (counts, uint64, error) {
	var c counts
	d := fnv.New64a()

	t := sp.start()
	tables := [2][]shrimp.Overhead{shrimp.MeasureTable1(gens[0]), shrimp.MeasureTable1(gens[1])}
	sp.stop("table1", t)
	for _, rows := range tables {
		if err := checkTable1(rows); err != nil {
			return c, 0, err
		}
		fmt.Fprintln(d, rows)
	}

	t = sp.start()
	base := shrimp.MeasureBaseline(gens[0])
	sp.stop("baseline", t)
	if err := checkBaseline(base); err != nil {
		return c, 0, err
	}
	fmt.Fprintln(d, base)

	t = sp.start()
	var sweeps [2][]shrimp.LatencyResult
	var worst [2]shrimp.LatencyResult
	for g, gen := range gens {
		cfg := shrimp.ConfigFor(4, 4, gen)
		sweeps[g] = shrimp.LatencySweepParallel(cfg, 0)
		worst[g] = shrimp.MaxLatency(cfg)
	}
	sp.stop("latency_sweep", t)
	for g := range gens {
		if err := checkLatency(sweeps[g], worst[g], paperWorstLatency[g]); err != nil {
			return c, 0, fmt.Errorf("%v: %w", gens[g], err)
		}
		for _, r := range append(sweeps[g], worst[g]) {
			c.Events += r.Events
		}
		fmt.Fprintln(d, sweeps[g], worst[g])
	}

	t = sp.start()
	var bw [2][]shrimp.BandwidthResult
	for g, gen := range gens {
		bw[g] = shrimp.BandwidthSweepParallel(shrimp.ConfigFor(2, 1, gen), bandwidthSizes, 512*1024, 0)
	}
	sp.stop("bandwidth_sweep", t)
	for g := range gens {
		if err := checkBandwidth(bw[g], paperPlateau[g]); err != nil {
			return c, 0, fmt.Errorf("%v: %w", gens[g], err)
		}
		for _, r := range bw[g] {
			c.Events += r.Events
			c.Packets += r.Packets
		}
		fmt.Fprintln(d, bw[g])
	}

	t = sp.start()
	cfg := shrimp.ConfigFor(2, 1, shrimp.GenEISAPrototype)
	au := shrimp.AUBandwidthSweep(cfg, []shrimp.Mode{shrimp.SingleWriteAU, shrimp.BlockedWriteAU}, 4000, 0)
	overlap := shrimp.MeasureOverlap(cfg, shrimp.BlockedWriteAU, 400)
	windows := []shrimp.Time{20 * shrimp.Nanosecond, 50 * shrimp.Nanosecond,
		150 * shrimp.Nanosecond, 500 * shrimp.Nanosecond, 2 * shrimp.Microsecond}
	merge := shrimp.MergeWindowSweep(cfg, windows, 100*shrimp.Nanosecond, 256, 0)
	sp.stop("ablations", t)
	if err := checkAblations(au, merge); err != nil {
		return c, 0, err
	}
	for _, r := range au {
		c.Packets += r.Packets
	}
	for _, r := range merge {
		c.Packets += r.Packets
	}
	fmt.Fprintln(d, au, overlap, merge)
	return c, d.Sum64(), nil
}

func checkTable1(rows []shrimp.Overhead) error {
	if len(rows) != len(paperTable1) {
		return fmt.Errorf("table 1 has %d rows, want %d", len(rows), len(paperTable1))
	}
	for i, want := range paperTable1 {
		if r := rows[i]; r.Name != want.name || r.Source != want.src || r.Dest != want.dest {
			return fmt.Errorf("table 1 row %d is %q %d+%d, want %q %d+%d",
				i, r.Name, r.Source, r.Dest, want.name, want.src, want.dest)
		}
	}
	return nil
}

func checkBaseline(b shrimp.BaselineComparison) error {
	send := b.BaseCsend.User + b.BaseCsend.Kernel
	recv := b.BaseCrecv.User + b.BaseCrecv.Kernel
	if send != 220 || recv != 255 || b.Shrimp.Total() != 151 {
		return fmt.Errorf("NX/2 baseline is %d/%d against %d, want 220/255 against 151",
			send, recv, b.Shrimp.Total())
	}
	return nil
}

func checkLatency(sweep []shrimp.LatencyResult, worst shrimp.LatencyResult, want shrimp.Time) error {
	if len(sweep) != 15 {
		return fmt.Errorf("latency sweep has %d points, want 15", len(sweep))
	}
	var top shrimp.Time
	for _, r := range sweep {
		top = max(top, r.Latency)
	}
	if worst.Latency != want || top != want {
		return fmt.Errorf("worst-case latency is %v (sweep maximum %v), want %v", worst.Latency, top, want)
	}
	return nil
}

func checkBandwidth(rs []shrimp.BandwidthResult, want string) error {
	if len(rs) != len(bandwidthSizes) {
		return fmt.Errorf("bandwidth sweep has %d points, want %d", len(rs), len(bandwidthSizes))
	}
	last := rs[len(rs)-1]
	if got := fmt.Sprintf("%.1f", last.MBps); last.TransferBytes != 4096 || got != want {
		return fmt.Errorf("%d B bandwidth is %s MB/s, want 4096 B at %s MB/s", last.TransferBytes, got, want)
	}
	return nil
}

func checkAblations(au []shrimp.AUBandwidthResult, merge []shrimp.MergeWindowResult) error {
	want := []string{"1.000", "0.008"}
	if len(au) != len(want) {
		return fmt.Errorf("AU ablation has %d modes, want %d", len(au), len(want))
	}
	for i, r := range au {
		if got := fmt.Sprintf("%.3f", r.PktPerStore); got != want[i] {
			return fmt.Errorf("%v sends %s packets per store, want %s", r.Mode, got, want[i])
		}
	}
	// Windows shorter than the 100 ns store gap send one packet per
	// store; longer ones merge the stream.
	wantMerge := []string{"1.000", "1.000", "0.008", "0.008", "0.008"}
	if len(merge) != len(wantMerge) {
		return fmt.Errorf("merge-window sweep has %d points, want %d", len(merge), len(wantMerge))
	}
	for i, r := range merge {
		if got := fmt.Sprintf("%.3f", r.PktPerStore); got != wantMerge[i] {
			return fmt.Errorf("merge window %v sends %s packets per store, want %s", r.Window, got, wantMerge[i])
		}
	}
	return nil
}

// setupAllreduce builds a w×h EISA machine with a channel pair along a
// spanning tree: columns reduce into row 0, row 0 reduces into node 0,
// and the broadcast retraces the tree downward. One op is one round of
// a sum allreduce over a seeded 1 KB vector per node: each node adds its
// children's partial sums to its own vector before sending up, and
// forwards the total to its children only once it has received it.
func setupAllreduce(seed uint64, small bool, sp *spans) (op, error) {
	w, h := 16, 16
	if small {
		w, h = 4, 4
	}
	n := w * h
	cfg := shrimp.ConfigFor(w, h, shrimp.GenEISAPrototype)
	// Kernel rings are all-to-all, two pages per peer, so a large mesh
	// outgrows the default per-node page budget.
	if need := 2*(n-1) + 1024; cfg.MemPagesPerNode < need {
		cfg.MemPagesPerNode = need
	}
	t := sp.start()
	m := shrimp.New(cfg)
	sp.stop("new", t)

	// Every parent has a lower index than its children, so visiting
	// nodes in falling order reaches each node after all its children.
	// up[c-1] and down[c-1] are the channels between node c and its
	// parent.
	t = sp.start()
	eps := make([]shrimp.Endpoint, n)
	for i := range eps {
		eps[i] = shrimp.NewEndpoint(m.Node(i))
	}
	kids := make([][]int, n)
	var up, down []*shrimp.Channel
	for c := 1; c < n; c++ {
		parent := c - w // column link toward row 0
		if c < w {
			parent = c - 1 // row-0 link toward node 0
		}
		kids[parent] = append(kids[parent], c)
		u, err := shrimp.NewChannel(m, eps[c], eps[parent], 2)
		if err != nil {
			return nil, fmt.Errorf("channel %d->%d: %w", c, parent, err)
		}
		dn, err := shrimp.NewChannel(m, eps[parent], eps[c], 2)
		if err != nil {
			return nil, fmt.Errorf("channel %d->%d: %w", parent, c, err)
		}
		up, down = append(up, u), append(down, dn)
	}
	sp.stop("channels", t)

	const cycle, size = 8, 1024
	in, acc := make([][]byte, n), make([][]byte, n)
	for v := range in {
		in[v], acc[v] = make([]byte, size), make([]byte, size)
	}
	want := make([]byte, size)
	send := func(ch *shrimp.Channel, b []byte, sp *spans) error {
		t := sp.start()
		err := ch.Send(b)
		sp.stop("send", t)
		return err
	}
	recv := func(ch *shrimp.Channel, sp *spans) ([]byte, error) {
		t := sp.start()
		b, err := ch.Recv()
		sp.stop("recv", t)
		return b, err
	}
	round := func(i int, sp *spans) (counts, uint64, error) {
		r := opRand(seed, i, cycle)
		clear(want)
		for v := range in {
			for off := 0; off < size; off += 8 {
				binary.LittleEndian.PutUint64(in[v][off:], r.Uint64())
			}
			addWords(want, in[v])
		}
		ev, pk, start := m.Fired(), m.Net.Stats().Delivered, m.Now()
		for v := n - 1; v >= 0; v-- {
			copy(acc[v], in[v])
			for _, c := range kids[v] {
				got, err := recv(up[c-1], sp)
				if err != nil {
					return counts{}, 0, fmt.Errorf("recv from node %d at node %d: %w", c, v, err)
				}
				if !bytes.Equal(got, acc[c]) {
					return counts{}, 0, fmt.Errorf("node %d received a partial sum from node %d that differs from the one sent", v, c)
				}
				addWords(acc[v], got)
			}
			if v > 0 {
				if err := send(up[v-1], acc[v], sp); err != nil {
					return counts{}, 0, fmt.Errorf("send from node %d: %w", v, err)
				}
			}
		}
		if !bytes.Equal(acc[0], want) {
			return counts{}, 0, fmt.Errorf("the root's total differs from the sum of the inputs")
		}
		for v := 0; v < n; v++ {
			if v > 0 {
				got, err := recv(down[v-1], sp)
				if err != nil {
					return counts{}, 0, fmt.Errorf("recv of the total at node %d: %w", v, err)
				}
				if !bytes.Equal(got, want) {
					return counts{}, 0, fmt.Errorf("node %d received a total that differs from the root's", v)
				}
			}
			for _, c := range kids[v] {
				if err := send(down[c-1], want, sp); err != nil {
					return counts{}, 0, fmt.Errorf("send of the total to node %d: %w", c, err)
				}
			}
		}
		t := sp.start()
		err := m.RunUntilIdle(4_000_000_000)
		sp.stop("drain", t)
		if err != nil {
			return counts{}, 0, fmt.Errorf("drain: %w", err)
		}
		c := counts{Events: m.Fired() - ev, Packets: m.Net.Stats().Delivered - pk}
		d := fnv.New64a()
		fmt.Fprintln(d, want, m.Now()-start, c.Events, c.Packets)
		return c, d.Sum64(), nil
	}
	// A fresh machine's first round takes a few more simulated events than
	// the rounds after it, which repeat exactly; set-up runs that round.
	if _, _, err := round(0, nil); err != nil {
		return nil, fmt.Errorf("first round: %w", err)
	}
	return round, nil
}

// addWords adds b into a as little-endian 64-bit words, wrapping.
func addWords(a, b []byte) {
	for off := 0; off+8 <= len(a); off += 8 {
		sum := binary.LittleEndian.Uint64(a[off:]) + binary.LittleEndian.Uint64(b[off:])
		binary.LittleEndian.PutUint64(a[off:], sum)
	}
}

// setupFaults returns the crash-survival and loss-recovery op: the
// 16-node ring availability run at 0, 1 and 2 crashes, then the 2-node
// deliberate-update loss sweep, both with metrics and the flight
// recorder on. Victims, the first crash time and the injector seeds come
// from the op's seeded inputs.
func setupFaults(seed uint64, small bool, _ *spans) (op, error) {
	crashes := []int{0, 1, 2}
	drops := []uint32{0, 1000, 2500, 5000, 10000, 25000, 50000}
	total := 256 * 1024
	if small {
		crashes = []int{1}
		drops = []uint32{0, 25000}
		total = 8 * 1024
	}
	const cycle = 8
	obsOn := func(cfg shrimp.Config) shrimp.Config {
		cfg.Metrics = true
		cfg.Recorder = shrimp.RecorderConfig{Interval: 10 * shrimp.Microsecond}
		return cfg
	}
	ring := obsOn(shrimp.ConfigFor(4, 4, shrimp.GenXpress)) // as shrimp-faults -avail -w 4 -h 4
	pair := obsOn(shrimp.ConfigFor(2, 1, shrimp.GenXpress))
	return func(i int, sp *spans) (counts, uint64, error) {
		var c counts
		d := fnv.New64a()
		r := opRand(seed, i, cycle)
		plan := crashPlan(r, ring.NodeCount())
		faults := shrimp.FaultConfig{
			Seed:       r.Uint64(),
			Reliable:   true,
			Survivable: true,
			Heartbeat:  200 * shrimp.Microsecond,
			// shrimp-faults' budget and timeout: detection stays short
			// relative to the workload.
			RetryBudget: 6,
			AckTimeout:  10 * shrimp.Microsecond,
		}
		t := sp.start()
		points := make([]shrimp.AvailabilityPoint, len(crashes))
		for k, n := range crashes {
			cfg := ring
			cfg.Faults = faults
			copy(cfg.Faults.Nodes[:], plan[:n])
			points[k] = shrimp.MeasureAvailability(cfg, 6, 64)
		}
		sp.stop("avail", t)
		for k, p := range points {
			if err := checkAvailability(p, plan[:crashes[k]], ring.NodeCount()); err != nil {
				return c, 0, err
			}
			c.add(counts{Events: p.Events, PeerDowns: p.PeerDowns, MapsTorn: p.MapsTorn})
		}
		fmt.Fprintln(d, points)

		cfg := pair
		cfg.Faults = shrimp.FaultConfig{Seed: r.Uint64(), Reliable: true}
		t = sp.start()
		loss := shrimp.FaultSweep(cfg, drops, 1024, total, 1)
		sp.stop("loss_sweep", t)
		for _, p := range loss {
			if p.Err != "" || p.GoodBytes != uint64(total) {
				return c, 0, fmt.Errorf("loss sweep at %d ppm delivered %d of %d bytes: %q",
					p.DropPPM, p.GoodBytes, total, p.Err)
			}
			c.add(counts{Events: p.Events, Retransmits: p.Retransmits, Acks: p.AcksSent})
		}
		fmt.Fprintln(d, loss)
		return c, d.Sum64(), nil
	}, nil
}

// crashPlan draws two distinct crash victims and the first crash time;
// the second crash follows 120 µs later, as in shrimp-faults -avail.
func crashPlan(r *rand.Rand, nodes int) [2]shrimp.NodeFault {
	v0 := r.IntN(nodes)
	v1 := (v0 + 1 + r.IntN(nodes-1)) % nodes
	at := 400*shrimp.Microsecond + shrimp.Time(r.IntN(100))*shrimp.Microsecond
	return [2]shrimp.NodeFault{
		{Node: v0, Kind: shrimp.NodeCrash, At: at},
		{Node: v1, Kind: shrimp.NodeCrash, At: at + 120*shrimp.Microsecond},
	}
}

// checkAvailability checks one ring availability run: no machine check,
// no word lost on a surviving flow, and every flow whose two ends
// survive verified in full. Flow i runs from node i to node i+1.
func checkAvailability(p shrimp.AvailabilityPoint, crashed []shrimp.NodeFault, nodes int) error {
	dead := make([]bool, nodes)
	for _, f := range crashed {
		dead[f.Node] = true
	}
	want := 0
	for i := 0; i < nodes; i++ {
		if !dead[i] && !dead[(i+1)%nodes] {
			want++
		}
	}
	if p.Err != "" || p.BadWords != 0 || p.GoodFlows != want || p.Crashes != len(crashed) {
		return fmt.Errorf("availability at %d crashes: %d/%d good flows (want %d), %d bad words, error %q",
			len(crashed), p.GoodFlows, p.Flows, want, p.BadWords, p.Err)
	}
	return nil
}

// setupOverlap returns the §4.1 ISA compute-and-store loop, run through
// a single-write and then a blocked-write mapping; each MeasureOverlap
// call also runs the unmapped baseline.
func setupOverlap(_ uint64, small bool, _ *spans) (op, error) {
	iters := 50_000
	if small {
		iters = 2_000
	}
	cfg := shrimp.ConfigFor(2, 1, shrimp.GenEISAPrototype)
	return func(_ int, sp *spans) (counts, uint64, error) {
		t := sp.start()
		single := shrimp.MeasureOverlap(cfg, shrimp.SingleWriteAU, iters)
		sp.stop("overlap_single", t)
		t = sp.start()
		blocked := shrimp.MeasureOverlap(cfg, shrimp.BlockedWriteAU, iters)
		sp.stop("overlap_blocked", t)
		for _, r := range []shrimp.OverlapResult{single, blocked} {
			if r.BytesMoved == 0 || r.BaselineTime <= 0 {
				return counts{}, 0, fmt.Errorf("overlap run moved %d bytes in %v", r.BytesMoved, r.BaselineTime)
			}
		}
		d := fnv.New64a()
		fmt.Fprintln(d, single, blocked)
		return counts{}, d.Sum64(), nil
	}, nil
}
