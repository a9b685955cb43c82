package shrimp_test

import (
	"fmt"

	shrimp "repro"
)

// ExampleNewChannel shows the basic map-once, communicate-forever flow.
func ExampleNewChannel() {
	m := shrimp.New(shrimp.ConfigFor(2, 1, shrimp.GenEISAPrototype))
	ch, err := shrimp.NewChannel(m,
		shrimp.NewEndpoint(m.Node(0)), shrimp.NewEndpoint(m.Node(1)), 1)
	if err != nil {
		panic(err)
	}
	if err := ch.Send([]byte("hello, mesh")); err != nil {
		panic(err)
	}
	data, err := ch.Recv()
	if err != nil {
		panic(err)
	}
	fmt.Println(string(data))
	// Output: hello, mesh
}

// ExampleKernel_Map drives the paper's primitive interface directly:
// one protected map() call, then stores are messages.
func ExampleKernel_Map() {
	m := shrimp.New(shrimp.ConfigFor(2, 1, shrimp.GenEISAPrototype))
	src, dst := m.Node(0), m.Node(1)
	ps := src.K.CreateProcess()
	pd := dst.K.CreateProcess()
	sendVA, _ := ps.AllocPages(1)
	recvVA, _ := pd.AllocPages(1)

	_, fut := src.K.Map(ps, sendVA, shrimp.PageSize,
		dst.ID, pd.PID, recvVA, shrimp.SingleWriteAU)
	if err := m.Await(fut); err != nil {
		panic(err)
	}
	if err := src.UserWrite32(ps, sendVA, 42); err != nil {
		panic(err)
	}
	if err := m.RunUntilIdle(10_000_000); err != nil {
		panic(err)
	}
	v, err := dst.UserRead32(pd, recvVA)
	if err != nil {
		panic(err)
	}
	fmt.Println(v)
	// Output: 42
}

// ExampleMeasureTable1 regenerates the paper's headline result.
func ExampleMeasureTable1() {
	rows := shrimp.MeasureTable1(shrimp.GenEISAPrototype)
	first := rows[0]
	fmt.Printf("%s: %d instructions (%d+%d)\n",
		first.Name, first.Total(), first.Source, first.Dest)
	// Output: single buffering: 9 instructions (4+5)
}

// ExampleAssemble runs a routine on a simulated node.
func ExampleAssemble() {
	p, err := shrimp.Assemble("demo", `
main:
	mov	ecx, 5
	xor	eax, eax
sum:	add	eax, ecx
	loop	sum
	hlt
`, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(p.Instrs), "instructions")
	// Output: 5 instructions
}
