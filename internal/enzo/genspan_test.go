package enzo

import (
	"strings"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/obs"
	"repro/internal/pfs"
)

// genSpanNames collects the per-generation app span names (dump:NN,
// redump:NN.t, scrub:NN) recorded for rank 0. dump:NN spans nested under
// a redump:* ancestor are the recovery re-write, not a new generation, and
// are excluded — matching how the diagnosis layer attributes them.
func genSpanNames(tr *obs.Tracer) map[string]int {
	var rank0 []obs.Span
	for _, sp := range tr.Spans() {
		if sp.Rank == 0 {
			rank0 = append(rank0, sp)
		}
	}
	underRedump := make([]bool, len(rank0))
	names := map[string]int{}
	for i, sp := range rank0 {
		if sp.Parent >= 0 {
			p := rank0[sp.Parent]
			underRedump[i] = underRedump[sp.Parent] ||
				(p.Layer == obs.LayerApp && strings.HasPrefix(p.Name, "redump:"))
		}
		if sp.Layer != obs.LayerApp {
			continue
		}
		if strings.HasPrefix(sp.Name, "dump:") && underRedump[i] {
			continue
		}
		if strings.HasPrefix(sp.Name, "dump:") ||
			strings.HasPrefix(sp.Name, "redump:") ||
			strings.HasPrefix(sp.Name, "scrub:") {
			names[sp.Name]++
		}
	}
	return names
}

// TestGenerationSpansKeyedByDump guards against the span-label collision
// where every checkpoint generation recorded under the same name: each
// dump generation must get its own dump:NN span, exactly once per rank.
func TestGenerationSpansKeyedByDump(t *testing.T) {
	cfg := Tiny()
	cfg.Dumps = 2
	tr := obs.NewTracer()
	res, err := Run(RunSpec{Machine: faultMachCfg(), FS: "xfs", Procs: 4, Config: cfg, Backend: BackendMPIIO, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("run did not verify")
	}
	names := genSpanNames(tr)
	for _, want := range []string{"dump:00", "dump:01"} {
		if names[want] != 1 {
			t.Errorf("span %q recorded %d times on rank 0, want 1 (have %v)",
				want, names[want], names)
		}
	}
}

// TestRedumpSpansKeyedByAttempt forces a scrub failure and checks that the
// recovery re-dump gets its own redump:NN.t span (keyed by generation and
// attempt, not colliding with the original dump:NN), and that the
// diagnosis layer attributes the redump cost separately from the dump.
func TestRedumpSpansKeyedByAttempt(t *testing.T) {
	cfg := Tiny()
	cfg.ScrubOnDump = true
	tr := obs.NewTracer()
	res, err := Run(RunSpec{Machine: faultMachCfg(), FS: "xfs", Procs: 4, Config: cfg, Backend: BackendMPIIO,
		Wrap: func(fs pfs.FileSystem) pfs.FileSystem {
			return faultfs.Wrap(fs, faultfs.Config{
				Mode: faultfs.CorruptWrite, EveryN: 3, MinBytes: 2048,
				FileSubstr: "dump00.raw", MaxInject: 3,
			})
		},
		Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Redumps == 0 {
		t.Fatal("no re-dump happened; test proves nothing")
	}
	names := genSpanNames(tr)
	if names["dump:00"] != 1 {
		t.Errorf("dump:00 recorded %d times on rank 0, want 1 (have %v)", names["dump:00"], names)
	}
	if names["scrub:00"] == 0 {
		t.Errorf("no scrub:00 span on rank 0 (have %v)", names)
	}
	redumps := 0
	for name := range names {
		if strings.HasPrefix(name, "redump:00.") {
			redumps += names[name]
		}
	}
	if redumps != int(res.Redumps) {
		t.Errorf("rank 0 has %d redump:00.* spans, want %d (have %v)", redumps, res.Redumps, names)
	}
}
