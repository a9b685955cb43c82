package core

import (
	"strings"
	"testing"

	"repro/internal/nic"
	"repro/internal/sim"
)

func TestValidateTelemetryNeedsMetrics(t *testing.T) {
	cfg := ConfigFor(4, 4, nic.GenEISAPrototype)
	cfg.Recorder.Interval = 10 * sim.Microsecond
	err := cfg.Validate()
	if err == nil || !strings.Contains(err.Error(), "Metrics: true") {
		t.Fatalf("recorder without metrics: %v", err)
	}
}

// A zero cache dimension passes a bare x&(x-1) power-of-two test, and
// the cache then fails in Go instead of in Validate: zero sets index
// out of range on the first DMA write, zero ways on the first lookup,
// and zero-byte lines spin forever in the snoop loop.
func TestValidateRejectsZeroCacheGeometry(t *testing.T) {
	for _, c := range []struct {
		name string
		zero func(*Config)
	}{
		{"sets", func(c *Config) { c.Cache.Sets = 0 }},
		{"ways", func(c *Config) { c.Cache.Ways = 0 }},
		{"line", func(c *Config) { c.Cache.LineBytes = 0 }},
	} {
		cfg := ConfigFor(4, 4, nic.GenEISAPrototype)
		c.zero(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), "cache") {
			t.Errorf("zero cache %s: Validate = %v, want a cache geometry error", c.name, err)
		}
	}
}
