package tq

import (
	"math"
	"strings"
	"testing"
)

// TestConfigBoundaries probes each knob just inside and just outside its
// valid range, matching the node/config_test.go convention: validation
// judges EFFECTIVE (defaulted) values, so a zero field is always valid.
func TestConfigBoundaries(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // "" = must validate
	}{
		{"zero value", Config{}, ""},
		{"quorum coeff at floor", Config{QuorumCoeff: 0.1}, ""},
		{"quorum coeff negative", Config{QuorumCoeff: -1}, "QuorumCoeff"},
		{"quorum coeff NaN", Config{QuorumCoeff: math.NaN()}, "QuorumCoeff"},
		{"quorum coeff Inf", Config{QuorumCoeff: math.Inf(1)}, "QuorumCoeff"},
		{"walk ttl at floor", Config{WalkTTL: 1}, ""},
		{"walk ttl at cap", Config{WalkTTL: MaxWirePath - 1}, ""},
		{"walk ttl past cap", Config{WalkTTL: MaxWirePath}, "WalkTTL"},
		{"walk ttl negative", Config{WalkTTL: -1}, "WalkTTL"},
		{"walkers at cap", Config{Walkers: 128}, ""},
		{"walkers past cap", Config{Walkers: 129}, "Walkers"},
		{"walkers negative", Config{Walkers: -1}, "Walkers"},
		{"explicit lease", Config{Lease: 40}, ""},
		{"lease negative", Config{Lease: -1}, "Lease"},
		{"max lease below min", Config{MaxLease: minLease - 1}, "MaxLease"},
		{"max lease equals min", Config{MaxLease: minLease}, ""},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: validated, want error mentioning %q", tc.name, tc.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	d := Config{}.WithDefaults()
	if d.QuorumCoeff != 1.0 || d.WalkTTL != 8 || d.MaxLease != 192 {
		t.Fatalf("unexpected defaults: %+v", d)
	}
	// Defaults must themselves validate.
	if err := d.Validate(); err != nil {
		t.Fatalf("defaults do not validate: %v", err)
	}
	// Explicit values survive defaulting.
	c := Config{WalkTTL: 5, Lease: 30, Walkers: 3}.WithDefaults()
	if c.WalkTTL != 5 || c.Lease != 30 || c.Walkers != 3 {
		t.Fatalf("explicit values overwritten: %+v", c)
	}
}

func TestQuorumAndWalkerSizing(t *testing.T) {
	c := NewClient(Config{})
	for _, tc := range []struct{ n, q int }{{1, 1}, {4, 2}, {16, 4}, {64, 8}, {100, 10}, {1024, 32}} {
		if q := c.quorumSize(tc.n); q != tc.q {
			t.Errorf("quorumSize(%d) = %d, want %d", tc.n, q, tc.q)
		}
	}
	// Coefficient scales and clamps.
	c2 := NewClient(Config{QuorumCoeff: 3})
	if q := c2.quorumSize(4); q != 4 {
		t.Errorf("oversized quorum not clamped to n: got %d", q)
	}
	// Auto walker fleet covers the quorum twice over per TTL.
	if k := c.walkers(8); k != 2 {
		t.Errorf("walkers(q=8) = %d, want 2", k)
	}
	if k := c.walkers(32); k != 8 {
		t.Errorf("walkers(q=32) = %d, want 8", k)
	}
	c3 := NewClient(Config{Walkers: 5})
	if k := c3.walkers(32); k != 5 {
		t.Errorf("explicit walkers ignored: got %d", k)
	}
}
