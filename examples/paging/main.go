// Mapping consistency under paging (paper §4.4): a receive buffer's
// physical page is replaced while a sender maps into it. Under the
// invalidation protocol the kernels shoot down the remote NIPT entry
// (marking the sender's page read-only), replace the page, and lazily
// re-establish the mapping when the sender next writes — via a page
// fault, exactly like TLB consistency in shared-memory multiprocessors.
package main

import (
	"fmt"
	"log"

	shrimp "repro"
)

func main() {
	cfg := shrimp.ConfigFor(2, 1, shrimp.GenEISAPrototype)
	cfg.Kernel.Policy = shrimp.InvalidateProtocol
	m := shrimp.New(cfg)
	nodeA, nodeB := m.Node(0), m.Node(1)
	sender := nodeA.K.CreateProcess()
	receiver := nodeB.K.CreateProcess()

	sendVA, err := sender.AllocPages(1)
	if err != nil {
		log.Fatal(err)
	}
	recvVA, err := receiver.AllocPages(1)
	if err != nil {
		log.Fatal(err)
	}
	_, fut := nodeA.K.Map(sender, sendVA, shrimp.PageSize,
		nodeB.ID, receiver.PID, recvVA, shrimp.SingleWriteAU)
	if err := m.Await(fut); err != nil {
		log.Fatal(err)
	}

	// Traffic flows.
	if err := nodeA.UserWrite32(sender, sendVA, 1); err != nil {
		log.Fatal(err)
	}
	if err := m.RunUntilIdle(10_000_000); err != nil {
		log.Fatal(err)
	}
	v, _ := nodeB.UserRead32(receiver, recvVA)
	oldFrame, _ := receiver.FrameOf(recvVA)
	fmt.Printf("before eviction: receiver sees %d in frame %d\n", v, oldFrame)

	// Replace the mapped-in page. The kernel must first invalidate the
	// sender's NIPT entry and collect the acknowledgement.
	if err := m.Await(nodeB.K.EvictPage(receiver, recvVA.Page())); err != nil {
		log.Fatalf("evict: %v", err)
	}
	// Take the freed frame for other use, as real memory pressure would.
	if _, err := receiver.AllocPages(1); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("evicted: sender served %d invalidation(s); its page is now read-only\n",
		nodeA.K.Stats().InvalidatesServed)

	// The sender writes again: page fault -> kernel re-establishes the
	// mapping against the page's new frame -> the store retries and
	// lands. (UserWrite32 surfaces the fault; the kernel repair path is
	// driven here the way the CPU's fault handler drives it.)
	stack, _ := sender.AllocPages(1)
	prog, err := shrimp.Assemble("poke", `
poke:
	mov	dword [SBUF], 42
	hlt
`, map[string]int64{"SBUF": int64(sendVA)})
	if err != nil {
		log.Fatal(err)
	}
	nodeA.K.BindProcess(sender)
	cpu := nodeA.CPU
	cpu.Load(prog)
	cpu.R[4] = uint32(stack) + shrimp.PageSize // ESP
	if err := cpu.Start("poke"); err != nil {
		log.Fatal(err)
	}
	if err := m.RunUntilIdle(50_000_000); err != nil {
		log.Fatal(err)
	}
	if err := cpu.Err(); err != nil {
		log.Fatalf("cpu aborted: %v", err)
	}

	newFrame, _ := receiver.FrameOf(recvVA)
	v, _ = nodeB.UserRead32(receiver, recvVA)
	fmt.Printf("after write fault: mapping re-established to frame %d, receiver sees %d\n",
		newFrame, v)
	fmt.Printf("kernel stats: sender re-establish faults=%d, receiver page-ins=%d, evictions=%d\n",
		nodeA.K.Stats().ReestablishFaults, nodeB.K.Stats().PageIns, nodeB.K.Stats().Evictions)
}
