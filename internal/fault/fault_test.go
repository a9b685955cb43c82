package fault

import (
	"errors"
	"testing"

	"repro/internal/sim"
)

func TestEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config enabled")
	}
	for _, c := range []Config{
		{Seed: 1}, {DropPPM: 1}, {Reliable: true},
		{Nodes: [2]NodeFault{{Node: 1, Kind: NodeCrash, At: 1}}},
	} {
		if !c.Enabled() {
			t.Fatalf("config %+v not enabled", c)
		}
	}
}

func TestDefaults(t *testing.T) {
	var c Config
	if c.RetryBudgetOrDefault() != DefaultRetryBudget ||
		c.AckTimeoutOrDefault() != DefaultAckTimeout {
		t.Fatal("zero config did not resolve defaults")
	}
	c = Config{RetryBudget: 3, AckTimeout: sim.Microsecond}
	if c.RetryBudgetOrDefault() != 3 || c.AckTimeoutOrDefault() != sim.Microsecond {
		t.Fatal("explicit tunables not honored")
	}
}

// TestRollDeterminism: decisions are a pure function of (seed, node,
// stream, count, clock) — two injectors over the same schedule agree
// decision for decision, and Reset replays the identical sequence.
func TestRollDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, DropPPM: 250_000, CorruptPPM: 100_000}
	draw := func(i *Injector) []bool {
		var out []bool
		for n := 0; n < 4; n++ {
			for k := 0; k < 64; k++ {
				out = append(out, i.DropPacket(n, 0), i.CorruptPacket(n, 0))
			}
		}
		return out
	}
	a := draw(NewInjector(cfg, 4))
	b := draw(NewInjector(cfg, 4))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged", i)
		}
	}
	inj := NewInjector(cfg, 4)
	c := draw(inj)
	inj.Reset(cfg)
	d := draw(inj)
	for i := range c {
		if c[i] != d[i] {
			t.Fatalf("Reset changed decision %d", i)
		}
	}
	// A nonzero rate actually fires somewhere in 256 draws at 25%.
	fired := false
	for _, v := range a {
		fired = fired || v
	}
	if !fired {
		t.Fatal("25% rate never fired in 512 decisions")
	}
}

func TestRollRespectsRates(t *testing.T) {
	never := NewInjector(Config{Seed: 9}, 1)
	always := NewInjector(Config{Seed: 9, DropPPM: 1_000_000}, 1)
	for i := 0; i < 100; i++ {
		if never.DropPacket(0, 0) {
			t.Fatal("zero rate fired")
		}
		if !always.DropPacket(0, 0) {
			t.Fatal("1e6 ppm rate missed")
		}
	}
	var nilInj *Injector
	if nilInj.DropPacket(0, 0) || nilInj.CorruptPacket(0, 0) || nilInj.Reliable() {
		t.Fatal("nil injector not inert")
	}
	nilInj.Reset(Config{}) // must not panic
}

func TestMachineCheck(t *testing.T) {
	mc := &MachineCheck{Node: 3, Kind: CheckRetryBudget, At: 5 * sim.Microsecond, Detail: "flow stuck"}
	var err error = mc
	var got *MachineCheck
	if !errors.As(err, &got) || got.Kind != CheckRetryBudget {
		t.Fatal("errors.As failed")
	}
	s := err.Error()
	for _, want := range []string{"node 3", CheckRetryBudget.String(), "flow stuck"} {
		if !containsStr(s, want) {
			t.Fatalf("error %q missing %q", s, want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
