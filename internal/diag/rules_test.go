package diag

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func ptr[T any](v T) *T { return &v }

// defaultSet is the hint set a run opened with mpiio.DefaultHints records.
var defaultSet = HintSet{File: "f", CBBufferBytes: 4 << 20, SieveBufferBytes: 4 << 20, DataSieving: true}

// withSet returns defaultSet with one edit applied.
func withSet(edit func(*HintSet)) []HintSet {
	hs := defaultSet
	edit(&hs)
	return []HintSet{hs}
}

// ruleTwins maps each detector that tests the same condition as a hint
// rule to the params that rule emits.
var ruleTwins = map[string][]string{
	"cb-mismatch":        {"cb_nodes"},
	"read-amplification": {"data_sieving", "sieve_buffer"},
	"unhidden-async":     {"async_io"},
}

// TestAutoTuneRules pins every branch of Suggest's rule set: each case is
// a hand-built report and the full delta list it yields (param, rendered
// from/to/why, typed value), in rule order. Where a rule has a detector
// twin, the detector must fire exactly when the rule does; the one
// documented exception is an effective aggregator count of 0 (no cb_nodes
// and no recorded rank count), which the rule still reports and the
// cb-mismatch detector does not.
func TestAutoTuneRules(t *testing.T) {
	pvfs := FSGeom{Name: "pvfs", DataServers: 8, StripeUnitBytes: 64 << 10}
	cases := []struct {
		name       string
		rep        *Report
		want       []HintsDelta
		silentTwin string // the twin detector exempt from the check
	}{
		{name: "nil-report"},
		{name: "empty-report", rep: &Report{}},
		{
			name: "cb_nodes",
			rep: &Report{Meta: RunMeta{Procs: 2}, FS: pvfs, Hints: []HintSet{defaultSet},
				Traffic: Traffic{CollectiveOps: 100}},
			want: []HintsDelta{{Param: "cb_nodes", From: "0", To: "8",
				Why: "2 effective aggregators vs 8 data servers", CBNodes: ptr(8)}},
		},
		{
			name: "cb_nodes-oversubscribed",
			rep: &Report{Meta: RunMeta{Procs: 64}, FS: pvfs,
				Hints:   withSet(func(h *HintSet) { h.CBNodes = 16 }),
				Traffic: Traffic{CollectiveOps: 100}},
			want: []HintsDelta{{Param: "cb_nodes", From: "16", To: "8",
				Why: "16 effective aggregators vs 8 data servers", CBNodes: ptr(8)}},
		},
		{
			name: "cb_nodes-effective-count-0",
			rep: &Report{FS: pvfs, Hints: []HintSet{defaultSet},
				Traffic: Traffic{CollectiveOps: 100}},
			want: []HintsDelta{{Param: "cb_nodes", From: "0", To: "8",
				Why: "0 effective aggregators vs 8 data servers", CBNodes: ptr(8)}},
			silentTwin: "cb-mismatch",
		},
		{
			name: "cb_nodes-silent-when-matched",
			rep: &Report{Meta: RunMeta{Procs: 8}, FS: pvfs, Hints: []HintSet{defaultSet},
				Traffic: Traffic{CollectiveOps: 100}, Sizes: SizeProfile{Requests: 100}},
		},
		{
			name: "cb_nodes-silent-without-collectives",
			rep:  &Report{Meta: RunMeta{Procs: 2}, FS: pvfs, Hints: []HintSet{defaultSet}},
		},
		{
			name: "cb_nodes-silent-on-one-data-server",
			rep: &Report{Meta: RunMeta{Procs: 2}, FS: FSGeom{DataServers: 1, StripeUnitBytes: 64 << 10},
				Hints: []HintSet{defaultSet}, Traffic: Traffic{CollectiveOps: 100}},
		},
		{
			name: "cb_buffer-misaligned",
			rep: &Report{Meta: RunMeta{Procs: 8}, FS: pvfs,
				Hints:   withSet(func(h *HintSet) { h.CBNodes = 8; h.CBBufferBytes = 4<<20 + 1<<10 }),
				Traffic: Traffic{CollectiveOps: 100}},
			want: []HintsDelta{{Param: "cb_buffer", From: "4097KiB", To: "4MiB",
				Why:          "collective buffer is not a whole number of 64KiB stripe units: every flush splits a stripe across two server requests",
				CBBufferSize: ptr[int64](4 << 20)}},
		},
		{
			name: "cb_buffer-misaligned-below-one-unit",
			rep: &Report{Meta: RunMeta{Procs: 8}, FS: pvfs,
				Hints:   withSet(func(h *HintSet) { h.CBNodes = 8; h.CBBufferBytes = 10 << 10 }),
				Traffic: Traffic{CollectiveOps: 100}},
			want: []HintsDelta{{Param: "cb_buffer", From: "10KiB", To: "64KiB",
				Why:          "collective buffer is not a whole number of 64KiB stripe units: every flush splits a stripe across two server requests",
				CBBufferSize: ptr[int64](64 << 10)}},
		},
		{
			name: "cb_buffer-small-requests",
			rep: &Report{Meta: RunMeta{Procs: 8}, FS: pvfs,
				Hints:   withSet(func(h *HintSet) { h.CBNodes = 8; h.CBBufferBytes = 128 << 10 }),
				Traffic: Traffic{CollectiveOps: 100}, Sizes: SizeProfile{Requests: 100, SmallRequests: 80}},
			want: []HintsDelta{{Param: "cb_buffer", From: "128KiB", To: "512KiB",
				Why:          "80 of 100 device requests below the stripe unit: one flush should fill every server's stripe",
				CBBufferSize: ptr[int64](512 << 10)}},
		},
		{
			name: "cb_buffer-silent-when-large-requests-dominate",
			rep: &Report{Meta: RunMeta{Procs: 8}, FS: pvfs,
				Hints:   withSet(func(h *HintSet) { h.CBNodes = 8; h.CBBufferBytes = 128 << 10 }),
				Traffic: Traffic{CollectiveOps: 100}, Sizes: SizeProfile{Requests: 100, SmallRequests: 10}},
		},
		{
			name: "cb_buffer-silent-without-a-stripe-unit",
			rep: &Report{Meta: RunMeta{Procs: 8}, FS: FSGeom{DataServers: 8},
				Hints:   withSet(func(h *HintSet) { h.CBNodes = 8; h.CBBufferBytes = 4<<20 + 1<<10 }),
				Traffic: Traffic{CollectiveOps: 100}, Sizes: SizeProfile{Requests: 100, SmallRequests: 80}},
		},
		{
			name: "cb_buffer-silent-without-collectives",
			rep: &Report{Meta: RunMeta{Procs: 8}, FS: pvfs,
				Hints: withSet(func(h *HintSet) { h.CBNodes = 8; h.CBBufferBytes = 4<<20 + 1<<10 })},
		},
		{
			name: "data_sieving-off",
			rep: &Report{Hints: []HintSet{defaultSet},
				Traffic: Traffic{LogicalReadBytes: 1 << 20, PhysicalReadBytes: 8 << 20}},
			want: []HintsDelta{{Param: "data_sieving", From: "true", To: "false",
				Why: "read amplification 8.00x: sieved holes dominate the transfers", DataSieving: ptr(false)}},
		},
		{
			name: "sieve_buffer-shrink",
			rep: &Report{FS: FSGeom{StripeUnitBytes: 64 << 10}, Hints: []HintSet{defaultSet},
				Traffic: Traffic{LogicalReadBytes: 4 << 20, PhysicalReadBytes: 8 << 20}},
			want: []HintsDelta{{Param: "sieve_buffer", From: "4MiB", To: "64KiB",
				Why: "read amplification 2.00x: align sieve chunks to the stripe unit", DSBufferSize: ptr[int64](64 << 10)}},
		},
		{
			name: "read-amplification-silent-below-the-noise-floor",
			rep: &Report{FS: FSGeom{StripeUnitBytes: 64 << 10}, Hints: []HintSet{defaultSet},
				Traffic: Traffic{LogicalReadBytes: 100 << 10, PhysicalReadBytes: 900 << 10}},
		},
		{
			name: "read-amplification-silent-below-1.5x",
			rep: &Report{FS: FSGeom{StripeUnitBytes: 64 << 10}, Hints: []HintSet{defaultSet},
				Traffic: Traffic{LogicalReadBytes: 4 << 20, PhysicalReadBytes: 5 << 20}},
		},
		{
			name: "read-amplification-silent-without-logical-reads",
			rep: &Report{FS: FSGeom{StripeUnitBytes: 64 << 10}, Hints: []HintSet{defaultSet},
				Traffic: Traffic{PhysicalReadBytes: 8 << 20}},
		},
		{
			name: "retry-arm",
			rep:  &Report{Hints: []HintSet{defaultSet}, Timeouts: 3},
			want: []HintsDelta{{Param: "retry", From: "disabled", To: "5 attempts",
				Why: "3 deadline timeouts with no retry policy", RetryMaxAttempts: ptr(5)}},
		},
		{
			name: "retry-raise",
			rep: &Report{Meta: RunMeta{RestartFallbacks: 1}, Timeouts: 3,
				Hints: withSet(func(h *HintSet) { h.RetryEnabled = true; h.RetryMaxAttempts = 5 })},
			want: []HintsDelta{{Param: "retry", From: "5 attempts", To: "7 attempts",
				Why: "retries exhausted into restart fallbacks", RetryMaxAttempts: ptr(7)}},
		},
		{
			name: "retry-silent-when-armed-without-fallbacks",
			rep: &Report{Timeouts: 3,
				Hints: withSet(func(h *HintSet) { h.RetryEnabled = true; h.RetryMaxAttempts = 5 })},
		},
		{
			name: "retry-silent-without-timeouts",
			rep:  &Report{Meta: RunMeta{RestartFallbacks: 2}, Hints: []HintSet{defaultSet}},
		},
		{
			name: "async",
			rep: &Report{Meta: RunMeta{Makespan: 10, Phases: []PhaseSecs{{"write", 4}}},
				Hints: []HintSet{defaultSet}},
			want: []HintsDelta{{Param: "async_io", From: "false", To: "true",
				Why: "write phase is 40.0% of the makespan", AsyncIO: ptr(true)}},
		},
		{
			name: "async-silent-below-a-fifth",
			rep:  &Report{Meta: RunMeta{Makespan: 10, Phases: []PhaseSecs{{"write", 1.9}}}},
		},
		{
			name: "async-silent-when-already-async",
			rep:  &Report{Meta: RunMeta{Async: true, Makespan: 10, Phases: []PhaseSecs{{"write", 4}}}},
		},
		{
			name: "async-silent-without-a-makespan",
			rep:  &Report{Meta: RunMeta{Phases: []PhaseSecs{{"write", 4}}}},
		},
		{
			// No recorded hint set: rules 1-3 have no baseline and stay
			// silent; the retry rule arms retries from a zero vector.
			name: "no-hint-set",
			rep: &Report{Meta: RunMeta{Procs: 2, RestartFallbacks: 1}, FS: pvfs,
				Traffic:  Traffic{CollectiveOps: 100},
				Sizes:    SizeProfile{Requests: 100, SmallRequests: 80},
				Timeouts: 2},
			want: []HintsDelta{{Param: "retry", From: "disabled", To: "5 attempts",
				Why: "2 deadline timeouts with no retry policy", RetryMaxAttempts: ptr(5)}},
		},
		{
			name: "every-rule-in-order",
			rep: &Report{Meta: RunMeta{Procs: 2, Makespan: 10, Phases: []PhaseSecs{{"write", 5}}}, FS: pvfs,
				Hints:    withSet(func(h *HintSet) { h.CBBufferBytes = 4<<20 + 1<<10 }),
				Traffic:  Traffic{CollectiveOps: 100, LogicalReadBytes: 4 << 20, PhysicalReadBytes: 8 << 20},
				Timeouts: 1},
			want: []HintsDelta{
				{Param: "cb_nodes", From: "0", To: "8",
					Why: "2 effective aggregators vs 8 data servers", CBNodes: ptr(8)},
				{Param: "cb_buffer", From: "4097KiB", To: "4MiB",
					Why:          "collective buffer is not a whole number of 64KiB stripe units: every flush splits a stripe across two server requests",
					CBBufferSize: ptr[int64](4 << 20)},
				{Param: "sieve_buffer", From: "4MiB", To: "64KiB",
					Why: "read amplification 2.00x: align sieve chunks to the stripe unit", DSBufferSize: ptr[int64](64 << 10)},
				{Param: "retry", From: "disabled", To: "5 attempts",
					Why: "1 deadline timeouts with no retry policy", RetryMaxAttempts: ptr(5)},
				{Param: "async_io", From: "false", To: "true",
					Why: "write phase is 50.0% of the makespan", AsyncIO: ptr(true)},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Suggest(tc.rep)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Suggest:\n got  %s\n want %s", renderDeltas(got), renderDeltas(tc.want))
			}
			fired := map[string]bool{}
			for _, f := range Analyze(tc.rep) {
				fired[f.Detector] = true
			}
			for det, params := range ruleTwins {
				rule := false
				for _, d := range got {
					for _, p := range params {
						rule = rule || d.Param == p
					}
				}
				switch {
				case det == tc.silentTwin:
					if !rule || fired[det] {
						t.Fatalf("documented exception: rule %v fired=%v, detector %s fired=%v; want true, false", params, rule, det, fired[det])
					}
				case rule != fired[det]:
					t.Fatalf("rule %v fired=%v but its twin detector %s fired=%v", params, rule, det, fired[det])
				}
			}
		})
	}
}

// TestAutoTuneIdempotent is the fixed-point check: record the suggested
// hint deltas in the report's hint set and Suggest proposes no hint-level
// delta again — every rule's target state fails its own trigger.
func TestAutoTuneIdempotent(t *testing.T) {
	reps := []*Report{
		{Meta: RunMeta{Procs: 2}, FS: FSGeom{DataServers: 8, StripeUnitBytes: 64 << 10},
			Hints:   withSet(func(h *HintSet) { h.CBBufferBytes = 4<<20 + 3<<10 }),
			Traffic: Traffic{CollectiveOps: 100}, Sizes: SizeProfile{Requests: 100, SmallRequests: 80}},
		{FS: FSGeom{StripeUnitBytes: 256 << 10}, Hints: []HintSet{defaultSet},
			Traffic: Traffic{LogicalReadBytes: 1 << 20, PhysicalReadBytes: 16 << 20}},
		{FS: FSGeom{StripeUnitBytes: 256 << 10}, Hints: []HintSet{defaultSet},
			Traffic: Traffic{LogicalReadBytes: 4 << 20, PhysicalReadBytes: 8 << 20}},
		{Hints: []HintSet{defaultSet}, Timeouts: 5},
	}
	for i, rep := range reps {
		first := Suggest(rep)
		if len(first) == 0 {
			t.Fatalf("report %d: no delta to apply", i)
		}
		hs := rep.Hints[0]
		for _, d := range first {
			switch {
			case d.CBNodes != nil:
				hs.CBNodes = *d.CBNodes
			case d.CBBufferSize != nil:
				hs.CBBufferBytes = *d.CBBufferSize
			case d.DSBufferSize != nil:
				hs.SieveBufferBytes = *d.DSBufferSize
			case d.DataSieving != nil:
				hs.DataSieving = *d.DataSieving
			case d.RetryMaxAttempts != nil:
				hs.RetryEnabled, hs.RetryMaxAttempts = true, *d.RetryMaxAttempts
			}
		}
		tuned := *rep
		tuned.Hints = []HintSet{hs}
		for _, d := range Suggest(&tuned) {
			if d.Param != "async_io" {
				t.Fatalf("report %d: second pass suggested %s: %s -> %s (first pass: %s)", i, d.Param, d.From, d.To, renderDeltas(first))
			}
		}
	}
}

func renderDeltas(ds []HintsDelta) string {
	var b strings.Builder
	for _, d := range ds {
		fmt.Fprintf(&b, "\n  %s: %s -> %s (%s) = %v", d.Param, d.From, d.To, d.Why, deltaValue(d))
	}
	return b.String()
}

// deltaValue is the typed value a delta carries, nil when it carries none.
func deltaValue(d HintsDelta) any {
	switch {
	case d.CBNodes != nil:
		return *d.CBNodes
	case d.CBBufferSize != nil:
		return *d.CBBufferSize
	case d.DSBufferSize != nil:
		return *d.DSBufferSize
	case d.DataSieving != nil:
		return *d.DataSieving
	case d.RetryMaxAttempts != nil:
		return *d.RetryMaxAttempts
	case d.AsyncIO != nil:
		return *d.AsyncIO
	}
	return nil
}
