package msg

import (
	"testing"

	"repro/internal/core"
	"repro/internal/nic"
)

func TestTable1Counts(t *testing.T) {
	rows := MeasureTable1(core.ConfigFor(2, 1, nic.GenEISAPrototype))
	for _, r := range rows {
		t.Logf("%s", r)
	}
	want := map[string][2]uint64{
		"single buffering":           {4, 5},
		"single buffering + copy":    {4, 17},
		"double buffering (case 1)":  {1, 1},
		"double buffering (case 2)":  {3, 5},
		"double buffering (case 3)":  {5, 5},
		"deliberate-update transfer": {15, 0},
		"csend and crecv":            {73, 78},
	}
	for _, r := range rows {
		w, ok := want[r.Name]
		if !ok {
			t.Errorf("unexpected row %q", r.Name)
			continue
		}
		if r.Source != w[0] || r.Dest != w[1] {
			t.Errorf("%s: measured %d+%d, paper %d+%d", r.Name, r.Source, r.Dest, w[0], w[1])
		}
	}
}

func TestBaselineComparison(t *testing.T) {
	c := MeasureBaseline(core.ConfigFor(2, 1, nic.GenEISAPrototype))
	t.Logf("SHRIMP csend+crecv: %d (%d+%d)", c.Shrimp.Total(), c.Shrimp.Source, c.Shrimp.Dest)
	t.Logf("baseline csend: user=%d kernel=%d traps=%d", c.BaseCsend.User, c.BaseCsend.Kernel, c.BaseCsend.Traps)
	t.Logf("baseline crecv: user=%d kernel=%d traps=%d", c.BaseCrecv.User, c.BaseCrecv.Kernel, c.BaseCrecv.Traps)
	t.Logf("overhead ratio: %.2fx (paper: ~(222+261)/151 = 3.2x)", c.Ratio())
	if c.Ratio() < 2.0 {
		t.Errorf("baseline should cost well over 2x SHRIMP, got %.2fx", c.Ratio())
	}
}

func TestTable1CountsGenerationInvariant(t *testing.T) {
	// Instruction counts are a property of the software, not of the
	// NIC's deposit path: the next-generation machine measures the same
	// Table 1.
	for _, r := range MeasureTable1(core.ConfigFor(2, 1, nic.GenXpress)) {
		if r.Source != r.PaperSource || r.Dest != r.PaperDest {
			t.Errorf("%s on xpress: %d+%d, want %d+%d",
				r.Name, r.Source, r.Dest, r.PaperSource, r.PaperDest)
		}
	}
}
