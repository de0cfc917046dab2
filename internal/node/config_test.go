package node

import (
	"strings"
	"testing"
)

// TestSublayerConfigBoundaries is the table pinning every sublayer
// config's Validate/withDefaults contract at its boundaries: zero means
// the documented default (and always validates), the first out-of-range
// value on each side is rejected, and the error message names the field
// and agrees with the enforced range. A config whose message and check
// disagree ships a lie to the operator; this table is where the two are
// held together.
func TestSublayerConfigBoundaries(t *testing.T) {
	type probe struct {
		name     string
		validate func() error
		wantErr  string // "" = must validate
	}
	probes := []probe{
		// ReliableConfig: zero-valued fields select the defaults.
		{"reliable zero", ReliableConfig{}.Validate, ""},
		{"reliable explicit defaults", ReliableConfig{RetransmitAfter: 6, MaxRetries: 8}.Validate, ""},
		{"reliable negative RetransmitAfter", ReliableConfig{RetransmitAfter: -1}.Validate, "RetransmitAfter"},
		{"reliable negative MaxRetries", ReliableConfig{MaxRetries: -1}.Validate, "MaxRetries"},

		// AuthConfig: Parole is nonnegative, 0 meaning permanent quarantine.
		{"auth zero", AuthConfig{}.Validate, ""},
		{"auth negative Parole", AuthConfig{Parole: -1}.Validate, "Parole"},

		// AuditConfig: every knob is nonnegative, 0 meaning the default.
		{"audit zero", AuditConfig{}.Validate, ""},
		{"audit negative GossipInterval", AuditConfig{GossipInterval: -1}.Validate, "GossipInterval"},
		{"audit negative GossipBudget", AuditConfig{GossipBudget: -1}.Validate, "GossipBudget"},
		{"audit negative Retain", AuditConfig{Retain: -1}.Validate, "Retain"},
		{"audit negative HoldFor", AuditConfig{HoldFor: -1}.Validate, "HoldFor"},
		{"audit negative PullInterval", AuditConfig{PullInterval: -1}.Validate, "PullInterval"},
		{"audit negative PullBudget", AuditConfig{PullBudget: -1}.Validate, "PullBudget"},
		{"audit PullTTL high edge", AuditConfig{PullTTL: 16}.Validate, ""},
		{"audit PullTTL above range", AuditConfig{PullTTL: 17}.Validate, "outside [0, 16]"},
		{"audit PullTTL below range", AuditConfig{PullTTL: -1}.Validate, "outside [0, 16]"},
		{"audit retention fifo", AuditConfig{Retention: RetentionFIFO}.Validate, ""},
		{"audit retention pinned", AuditConfig{Retention: RetentionPinned}.Validate, ""},
		{"audit unknown retention", AuditConfig{Retention: "lru"}.Validate, "Retention"},

		// StackConfig: FenceDepth in [0, 16], PrepareQuorum in (0, 1],
		// everything else nonnegative; zero means the default throughout.
		{"stack zero", StackConfig{}.Validate, ""},
		{"stack fence low edge", StackConfig{FenceDepth: 1}.Validate, ""},
		{"stack fence high edge", StackConfig{FenceDepth: 16}.Validate, ""},
		{"stack fence below range", StackConfig{FenceDepth: -1}.Validate, "outside [0, 16]"},
		{"stack fence above range", StackConfig{FenceDepth: 17}.Validate, "outside [0, 16]"},
		{"stack negative Retain", StackConfig{Retain: -1}.Validate, "Retain"},
		{"stack negative PullFanout", StackConfig{PullFanout: -1}.Validate, "PullFanout"},
		{"stack negative DrainTimeout", StackConfig{DrainTimeout: -1}.Validate, "DrainTimeout"},
		{"stack retention fifo", StackConfig{Retention: RetentionFIFO}.Validate, ""},
		{"stack unknown retention", StackConfig{Retention: "lru"}.Validate, "Retention"},
		{"stack quorum low interior", StackConfig{PrepareQuorum: 0.01}.Validate, ""},
		{"stack quorum high edge", StackConfig{PrepareQuorum: 1}.Validate, ""},
		{"stack quorum above range", StackConfig{PrepareQuorum: 1.01}.Validate, "outside (0, 1]"},
		{"stack quorum negative", StackConfig{PrepareQuorum: -0.5}.Validate, "outside (0, 1]"},
		{"stack quorum NaN", StackConfig{PrepareQuorum: nan()}.Validate, "PrepareQuorum"},
	}
	for _, p := range probes {
		err := p.validate()
		if p.wantErr == "" {
			if err != nil {
				t.Errorf("%s: should validate, got %v", p.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: should be rejected", p.name)
			continue
		}
		if !strings.Contains(err.Error(), p.wantErr) {
			t.Errorf("%s: error %q does not mention %q", p.name, err, p.wantErr)
		}
	}
}

// TestSublayerConfigDefaults pins what each zero field defaults to — the
// boundary Validate's "0 means the default" promise depends on.
func TestSublayerConfigDefaults(t *testing.T) {
	rc := ReliableConfig{}.withDefaults()
	if rc.RetransmitAfter != 6 || rc.MaxRetries != 8 {
		t.Errorf("reliable defaults: %+v", rc)
	}
	// Explicit values pass through untouched.
	rc = ReliableConfig{RetransmitAfter: 3, MaxRetries: 2}.withDefaults()
	if rc.RetransmitAfter != 3 || rc.MaxRetries != 2 {
		t.Errorf("reliable explicit values rewritten: %+v", rc)
	}

	dc := AuditConfig{}.withDefaults()
	if dc.GossipInterval != 8 || dc.GossipBudget != 8 || dc.Retain != 256 || dc.HoldFor != 16 {
		t.Errorf("audit defaults: %+v", dc)
	}
	if dc.PullInterval != 16 || dc.PullTTL != 2 ||
		dc.PullBudget != 64 || dc.Retention != RetentionPinned {
		t.Errorf("audit pull defaults: %+v", dc)
	}
	// PullInterval's default follows the CONFIGURED gossip interval too.
	if got := (AuditConfig{GossipInterval: 5}).withDefaults(); got.PullInterval != 10 {
		t.Errorf("audit PullInterval default should be 2*GossipInterval: %+v", got)
	}
	if got := (AuditConfig{PullInterval: 3, PullTTL: 5, Retention: RetentionFIFO}).withDefaults(); got.PullInterval != 3 || got.PullTTL != 5 || got.Retention != RetentionFIFO {
		t.Errorf("audit explicit pull values rewritten: %+v", got)
	}
	// HoldFor's default follows the CONFIGURED gossip interval, not 8.
	if got := (AuditConfig{GossipInterval: 5}).withDefaults(); got.HoldFor != 10 {
		t.Errorf("audit HoldFor default should be 2*GossipInterval: %+v", got)
	}
	if got := (AuditConfig{GossipInterval: 5, HoldFor: 3}).withDefaults(); got.HoldFor != 3 {
		t.Errorf("audit explicit HoldFor rewritten: %+v", got)
	}

	sc := StackConfig{}.withDefaults()
	if sc.Retain != 256 || sc.PullFanout != 2 || sc.Retention != RetentionPinned ||
		sc.FenceDepth != 2 || sc.DrainTimeout != 32 || sc.PrepareQuorum != 0.5 {
		t.Errorf("stack defaults: %+v", sc)
	}
	if sc.Adaptive || sc.Durable || sc.KeyEpoch != 0 {
		t.Errorf("stack zero flags rewritten: %+v", sc)
	}
	sc = resolvedStack().withDefaults()
	if sc != resolvedStack() {
		t.Errorf("stack explicit values rewritten: %+v", sc)
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}
