package kernel_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/vm"
)

const resultVA = vm.VAddr(0x3000_0000)

// worker returns a compute-bound program that counts 400 increments
// from start and stores the result at the fixed RESULT address.
func worker(start uint32) *isa.Program {
	return isa.MustAssemble("worker", `
main:
	mov	eax, START
	mov	ecx, 400
spin:	add	eax, 1
	dec	ecx
	jnz	spin
	mov	[RESULT], eax
	hlt
`, map[string]int64{"START": int64(start), "RESULT": int64(resultVA)})
}

// stage gives proc a result page at the fixed VA, a stack, and the
// worker program.
func stage(t *testing.T, proc *kernel.Process, start uint32) {
	t.Helper()
	res, err := proc.AllocPages(1)
	if err != nil {
		t.Fatal(err)
	}
	frame, _ := proc.FrameOf(res)
	proc.AS.Map(resultVA.Page(), vm.PTE{Frame: frame, Present: true, Writable: true})
	stack, err := proc.AllocPages(1)
	if err != nil {
		t.Fatal(err)
	}
	proc.SetupRun(worker(start), "main", stack+phys.PageSize)
}

// TestMultiprogrammingWithLiveTraffic is the Figure 3 demonstration:
// two processes on the receiving node share the CPU under round-robin
// scheduling while a remote sender streams into one of them. Both
// programs complete correctly, the stream lands in the right process's
// buffer, and the context switches never touch the NIC.
func TestMultiprogrammingWithLiveTraffic(t *testing.T) {
	m := core.New(core.ConfigFor(2, 1, nic.GenEISAPrototype))
	a, b := m.Node(0), m.Node(1)

	sender := a.K.CreateProcess()
	target := b.K.CreateProcess()
	other := b.K.CreateProcess()

	sendVA, _ := sender.AllocPages(1)
	recvVA, _ := target.AllocPages(1)
	m.MustMap(sender, sendVA, phys.PageSize, b.ID, target.PID, recvVA, nipt.SingleWriteAU)

	stage(t, target, 0)
	stage(t, other, 1_000_000)
	b.K.AddRunnable(target)
	b.K.AddRunnable(other)
	if err := b.K.StartScheduler(10 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}

	// While node B multitasks, node A streams stores into target's page.
	for i := 0; i < 50; i++ {
		if err := a.UserWrite32(sender, sendVA+vm.VAddr(4*i), uint32(7000+i)); err != nil {
			t.Fatal(err)
		}
		m.Eng.RunFor(2 * sim.Microsecond)
	}
	b.K.StopScheduler()
	if err := m.RunUntilIdle(50_000_000); err != nil {
		t.Fatal(err)
	}

	if b.K.Stats().ContextSwitches < 3 {
		t.Fatalf("only %d context switches", b.K.Stats().ContextSwitches)
	}
	check := func(proc *kernel.Process, want uint32) {
		t.Helper()
		v, err := b.UserRead32(proc, resultVA)
		if err != nil {
			t.Fatal(err)
		}
		if v != want {
			t.Fatalf("result %d, want %d", v, want)
		}
	}
	check(target, 400)
	check(other, 1_000_400)
	for i := 0; i < 50; i++ {
		v, _ := b.UserRead32(target, recvVA+vm.VAddr(4*i))
		if v != uint32(7000+i) {
			t.Fatalf("stream word %d = %d", i, v)
		}
	}
	// Protection: the stream never touched other's pages (its pages are
	// its result, stack, and nothing else; result was checked above and
	// the stack holds only the sentinel frame).
	frame, _ := other.FrameOf(resultVA)
	if got := b.Mem.Read32(frame.Addr(4)); got != 0 {
		t.Fatalf("other's memory perturbed: %d", got)
	}
}

// TestSchedulerRunsAloneProcess checks the degenerate single-process
// case keeps running across slices.
func TestSchedulerRunsAloneProcess(t *testing.T) {
	m := core.New(core.ConfigFor(1, 1, nic.GenXpress))
	n := m.Node(0)
	p := n.K.CreateProcess()
	stage(t, p, 5)
	n.K.AddRunnable(p)
	if err := n.K.StartScheduler(sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	m.Eng.RunFor(100 * sim.Microsecond)
	n.K.StopScheduler()
	if err := m.RunUntilIdle(10_000_000); err != nil {
		t.Fatal(err)
	}
	if v, _ := n.UserRead32(p, resultVA); v != 405 {
		t.Fatalf("result %d", v)
	}
}

// TestSchedulerRequiresRunnables covers the error paths.
func TestSchedulerRequiresRunnables(t *testing.T) {
	m := core.New(core.ConfigFor(1, 1, nic.GenXpress))
	if err := m.Node(0).K.StartScheduler(sim.Microsecond); err == nil {
		t.Fatal("empty run queue accepted")
	}
}
