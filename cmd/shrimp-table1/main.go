// shrimp-table1 regenerates Table 1 of the paper — the software
// overhead, in executed CPU instructions, of each message-passing
// primitive — plus the §5.2 comparison against a traditional
// kernel-mediated NX/2 implementation.
package main

import (
	"flag"
	"fmt"
	"os"

	shrimp "repro"
)

func main() {
	gen := flag.String("gen", "eisa", "network interface generation: eisa or xpress")
	baseline := flag.Bool("baseline", true, "also run the kernel-mediated NX/2 baseline comparison")
	flag.Parse()

	var g shrimp.Generation
	switch *gen {
	case "eisa":
		g = shrimp.GenEISAPrototype
	case "xpress":
		g = shrimp.GenXpress
	default:
		fmt.Fprintf(os.Stderr, "shrimp-table1: unknown -gen %q; want eisa or xpress\n", *gen)
		os.Exit(1)
	}

	fmt.Println("Table 1: software overhead of message passing primitives")
	fmt.Println("(instructions; measured on the simulated machine vs the paper)")
	fmt.Println()
	fmt.Printf("  %-28s %-12s %s\n", "primitive", "measured", "paper")
	fmt.Printf("  %-28s %-12s %s\n", "---------", "--------", "-----")
	for _, row := range shrimp.MeasureTable1(g) {
		fmt.Printf("  %-28s %3d (%d+%d)%*s %3d (%d+%d)\n",
			row.Name, row.Total(), row.Source, row.Dest,
			12-lenCounts(row.Total(), row.Source, row.Dest), "",
			row.PaperTotal(), row.PaperSource, row.PaperDest)
	}

	if !*baseline {
		return
	}
	fmt.Println()
	fmt.Println("NX/2 comparison (§5.2): SHRIMP user-level vs kernel-mediated baseline")
	c := shrimp.MeasureBaseline(g)
	fmt.Printf("  SHRIMP csend+crecv:    %d instructions (%d+%d)\n",
		c.Shrimp.Total(), c.Shrimp.Source, c.Shrimp.Dest)
	fmt.Printf("  baseline csend:        %d instructions (%d user + %d kernel), %d trap(s)\n",
		c.BaseCsend.User+c.BaseCsend.Kernel, c.BaseCsend.User, c.BaseCsend.Kernel, c.BaseCsend.Traps)
	fmt.Printf("  baseline crecv:        %d instructions (%d user + %d kernel), %d trap(s)\n",
		c.BaseCrecv.User+c.BaseCrecv.Kernel, c.BaseCrecv.User, c.BaseCrecv.Kernel, c.BaseCrecv.Traps)
	fmt.Printf("  overhead ratio:        %.2fx   (paper: NX/2 fast paths 222+261 vs 151, ~3.2x,\n", c.Ratio())
	fmt.Println("                                  plus system call and DMA interrupt costs)")
}

func lenCounts(t, s, d uint64) int {
	return len(fmt.Sprintf("%3d (%d+%d)", t, s, d))
}
