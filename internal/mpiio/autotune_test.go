package mpiio

import (
	"reflect"
	"testing"
)

func TestAutoTuneRules(t *testing.T) {
	// One case per rule plus the degenerate shapes: every rule must stay
	// silent when its inputs are missing, and an already-optimal vector
	// must come back untouched.
	base := DefaultHints()
	cases := []struct {
		name   string
		hints  Hints
		probe  Probe
		params []string // applied rule params in order; nil = identity
		check  func(t *testing.T, tuned Hints)
	}{
		{
			name:  "zero-probe-identity",
			hints: base,
			probe: Probe{},
		},
		{
			name:  "already-optimal-identity",
			hints: func() Hints { h := base; h.CBNodes = 8; return h }(),
			probe: Probe{Procs: 8, DataServers: 8, StripeUnit: 64 << 10,
				CollectiveOps: 100, Requests: 100},
		},
		{
			name:  "cb-nodes-matches-servers",
			hints: base,
			probe: Probe{Procs: 2, DataServers: 8, StripeUnit: 64 << 10,
				CollectiveOps: 100},
			params: []string{"cb_nodes"},
			check: func(t *testing.T, tuned Hints) {
				if tuned.CBNodes != 8 {
					t.Fatalf("CBNodes = %d, want 8", tuned.CBNodes)
				}
			},
		},
		{
			name:  "cb-nodes-silent-without-collectives",
			hints: base,
			probe: Probe{Procs: 2, DataServers: 8, StripeUnit: 64 << 10},
		},
		{
			name:  "cb-nodes-silent-on-zero-server-volume",
			hints: base,
			probe: Probe{Procs: 2, CollectiveOps: 100},
		},
		{
			name:  "cb-buffer-misaligned-rounds-down",
			hints: func() Hints { h := base; h.CBNodes = 8; h.CBBufferSize = 4<<20 + 1<<10; return h }(),
			probe: Probe{Procs: 8, DataServers: 8, StripeUnit: 64 << 10,
				CollectiveOps: 100},
			params: []string{"cb_buffer"},
			check: func(t *testing.T, tuned Hints) {
				if tuned.CBBufferSize != 4<<20 {
					t.Fatalf("CBBufferSize = %d, want %d", tuned.CBBufferSize, 4<<20)
				}
			},
		},
		{
			name:  "cb-buffer-small-requests-raise-to-stripe-set",
			hints: func() Hints { h := base; h.CBNodes = 8; h.CBBufferSize = 128 << 10; return h }(),
			probe: Probe{Procs: 8, DataServers: 8, StripeUnit: 64 << 10,
				CollectiveOps: 100, Requests: 100, SmallRequests: 80},
			params: []string{"cb_buffer"},
			check: func(t *testing.T, tuned Hints) {
				if tuned.CBBufferSize != 8*64<<10 {
					t.Fatalf("CBBufferSize = %d, want %d", tuned.CBBufferSize, 8*64<<10)
				}
			},
		},
		{
			name:  "cb-buffer-silent-when-large-requests-dominate",
			hints: func() Hints { h := base; h.CBNodes = 8; h.CBBufferSize = 128 << 10; return h }(),
			probe: Probe{Procs: 8, DataServers: 8, StripeUnit: 64 << 10,
				CollectiveOps: 100, Requests: 100, SmallRequests: 10},
		},
		{
			name:   "heavy-amplification-disables-sieving",
			hints:  base,
			probe:  Probe{LogicalReadBytes: 1 << 20, PhysicalReadBytes: 8 << 20},
			params: []string{"data_sieving"},
			check: func(t *testing.T, tuned Hints) {
				if tuned.DataSieving {
					t.Fatal("DataSieving still enabled")
				}
			},
		},
		{
			name:  "mild-amplification-aligns-sieve-buffer",
			hints: base,
			probe: Probe{StripeUnit: 64 << 10,
				LogicalReadBytes: 4 << 20, PhysicalReadBytes: 8 << 20},
			params: []string{"sieve_buffer"},
			check: func(t *testing.T, tuned Hints) {
				if tuned.DSBufferSize != 64<<10 {
					t.Fatalf("DSBufferSize = %d, want %d", tuned.DSBufferSize, 64<<10)
				}
			},
		},
		{
			name:  "amplification-below-noise-floor-silent",
			hints: base,
			probe: Probe{LogicalReadBytes: 100 << 10, PhysicalReadBytes: 900 << 10},
		},
		{
			name:   "timeouts-arm-retry",
			hints:  base,
			probe:  Probe{Timeouts: 3},
			params: []string{"retry"},
			check: func(t *testing.T, tuned Hints) {
				if !tuned.Retry.Enabled {
					t.Fatal("retry policy not armed")
				}
			},
		},
		{
			name: "fallbacks-raise-attempt-budget",
			hints: func() Hints {
				h := base
				h.Retry = DefaultRetryPolicy()
				return h
			}(),
			probe:  Probe{Timeouts: 3, RestartFallbacks: 1},
			params: []string{"retry"},
			check: func(t *testing.T, tuned Hints) {
				if want := DefaultRetryPolicy().MaxAttempts + 2; tuned.Retry.MaxAttempts != want {
					t.Fatalf("MaxAttempts = %d, want %d", tuned.Retry.MaxAttempts, want)
				}
			},
		},
		{
			name:  "armed-retry-without-fallbacks-silent",
			hints: func() Hints { h := base; h.Retry = DefaultRetryPolicy(); return h }(),
			probe: Probe{Timeouts: 3},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tuned, steps := tc.hints.AutoTuneSteps(tc.probe)
			var params []string
			for _, s := range steps {
				params = append(params, s.Param)
			}
			if !reflect.DeepEqual(params, tc.params) {
				t.Fatalf("applied rules %v, want %v", params, tc.params)
			}
			if tc.params == nil && tuned != tc.hints {
				t.Fatalf("identity case changed the hints: %+v != %+v", tuned, tc.hints)
			}
			if tc.check != nil {
				tc.check(t, tuned)
			}
		})
	}
}

func TestAutoTuneIdempotent(t *testing.T) {
	// Tuning the tuned vector against the same probe must be the identity:
	// every rule's target state satisfies its own trigger condition.
	probes := []Probe{
		{Procs: 2, DataServers: 8, StripeUnit: 64 << 10, CollectiveOps: 100,
			Requests: 100, SmallRequests: 80},
		{StripeUnit: 256 << 10, LogicalReadBytes: 1 << 20, PhysicalReadBytes: 16 << 20},
		{Timeouts: 5},
	}
	h := DefaultHints()
	h.CBBufferSize = 4<<20 + 3<<10
	for i, p := range probes {
		once, _ := h.AutoTuneSteps(p)
		twice, steps := once.AutoTuneSteps(p)
		if len(steps) != 0 || twice != once {
			t.Fatalf("probe %d: second tuning pass applied %d rules", i, len(steps))
		}
	}
}

func TestTuneStepString(t *testing.T) {
	s := TuneStep{Param: "cb_nodes", From: "0", To: "8", Why: "because"}
	if got := s.String(); got != "cb_nodes: 0 -> 8 (because)" {
		t.Fatalf("String() = %q", got)
	}
}
