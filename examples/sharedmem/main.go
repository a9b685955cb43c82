// PRAM-style shared memory (paper §4.1): two processes on different
// nodes create complementary automatic-update mappings over a "shared"
// page. Each keeps a local copy; every local store is duplicated into
// the remote copy by the hardware. With a software convention — each
// writer owns a disjoint region — the copies stay consistent, which is
// exactly the PRAM-consistency programming model the paper describes.
package main

import (
	"fmt"
	"log"

	shrimp "repro"
)

func main() {
	m := shrimp.New(shrimp.ConfigFor(2, 1, shrimp.GenEISAPrototype))
	nodeA, nodeB := m.Node(0), m.Node(1)
	procA := nodeA.K.CreateProcess()
	procB := nodeB.K.CreateProcess()

	pageA, err := procA.AllocPages(1)
	if err != nil {
		log.Fatal(err)
	}
	pageB, err := procB.AllocPages(1)
	if err != nil {
		log.Fatal(err)
	}

	// Complementary single-write automatic-update mappings: A's page
	// onto B's and B's onto A's. (Incoming deposits are not re-forwarded
	// by the NIC, so the cycle terminates.)
	_, fut := nodeA.K.Map(procA, pageA, shrimp.PageSize, nodeB.ID, procB.PID, pageB, shrimp.SingleWriteAU)
	if err := m.Await(fut); err != nil {
		log.Fatal(err)
	}
	_, fut = nodeB.K.Map(procB, pageB, shrimp.PageSize, nodeA.ID, procA.PID, pageA, shrimp.SingleWriteAU)
	if err := m.Await(fut); err != nil {
		log.Fatal(err)
	}

	// Ownership convention: A writes offsets [0,2048), B writes
	// [2048,4096). Simulate a few rounds of alternating updates.
	const rounds = 8
	for i := 0; i < rounds; i++ {
		if err := nodeA.UserWrite32(procA, pageA+shrimp.VAddr(4*i), uint32(100+i)); err != nil {
			log.Fatal(err)
		}
		if err := nodeB.UserWrite32(procB, pageB+shrimp.VAddr(2048+4*i), uint32(200+i)); err != nil {
			log.Fatal(err)
		}
	}
	if err := m.RunUntilIdle(10_000_000); err != nil {
		log.Fatal(err)
	}

	// Both processes now see both regions.
	fmt.Println("process A's view        process B's view")
	for i := 0; i < rounds; i++ {
		aLow, _ := nodeA.UserRead32(procA, pageA+shrimp.VAddr(4*i))
		aHigh, _ := nodeA.UserRead32(procA, pageA+shrimp.VAddr(2048+4*i))
		bLow, _ := nodeB.UserRead32(procB, pageB+shrimp.VAddr(4*i))
		bHigh, _ := nodeB.UserRead32(procB, pageB+shrimp.VAddr(2048+4*i))
		fmt.Printf("  [%d]=%3d  [2048+%d]=%3d    [%d]=%3d  [2048+%d]=%3d\n",
			4*i, aLow, 4*i, aHigh, 4*i, bLow, 4*i, bHigh)
		if aLow != bLow || aHigh != bHigh {
			log.Fatalf("copies diverged at round %d", i)
		}
	}
	fmt.Println("\nlocal copies are consistent: every store was duplicated to the")
	fmt.Println("remote copy by the snooping network interface, no kernel involved")
}
