package core

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// Telemetry validates with every observer armed at once: the recorder
// and the watchdog share the machine's one pacer slot.
func TestValidateTelemetryArmed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Metrics = true
	cfg.Recorder.Interval = 10 * sim.Microsecond
	cfg.Watchdog.Interval = 100 * sim.Microsecond
	if err := cfg.Validate(); err != nil {
		t.Fatalf("recorder+watchdog rejected: %v", err)
	}
}

func TestValidateTelemetryNeedsMetrics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Recorder.Interval = 10 * sim.Microsecond
	err := cfg.Validate()
	if err == nil || !strings.Contains(err.Error(), "Metrics: true") {
		t.Fatalf("recorder without metrics: %v", err)
	}
	cfg = DefaultConfig()
	cfg.Watchdog.Interval = 10 * sim.Microsecond
	err = cfg.Validate()
	if err == nil || !strings.Contains(err.Error(), "Metrics: true") {
		t.Fatalf("watchdog without metrics: %v", err)
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
		cfg := DefaultConfig()
		c.zero(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), "cache") {
			t.Errorf("zero cache %s: Validate = %v, want a cache geometry error", c.name, err)
		}
	}
}
