package diag

import (
	"testing"

	"repro/internal/enzo"
	"repro/internal/machine"
	"repro/internal/obs"
)

// TestSuggestCBNodesConfirmedFaster is the closed-loop acceptance test:
// run the full AMR64 problem with fewer aggregators than data servers, let
// Suggest propose the fix, apply it and rerun — the rerun must not be
// slower. Two places where the fix pays: a deliberately mismatched
// cb_nodes=2 under forced collective buffering on an 8-IOD PVFS, and the
// SP-2's own default (4 ranks per node, so np=8 means 2 aggregators) on
// GPFS. Full-size extents are required for cb_nodes to matter
// (quick-shrunk problems clamp the aggregator count), so this test costs a
// few wall seconds and is skipped under -short.
func TestSuggestCBNodesConfirmedFaster(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size AMR64 runs; skipped in -short mode")
	}
	for _, tc := range []struct {
		name    string
		mach    machine.Config
		fs      string
		backend enzo.Backend
		cbnodes int // 0 keeps the machine's one-aggregator-per-node default
	}{
		{"chiba/pvfs/mpiio-cb/cb=2", machine.ChibaCity(), "pvfs", enzo.BackendMPIIOCB, 2},
		{"sp2/gpfs/mpiio/default", machine.SP2(), "gpfs", enzo.BackendMPIIO, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(cbnodes int) (*Report, float64) {
				cfg := enzo.AMR64()
				cfg.CBNodes = cbnodes
				tr := obs.NewTracer()
				res, err := enzo.RunOnceTraced(tc.mach, tc.fs, 8, cfg, tc.backend, tr)
				if err != nil {
					t.Fatal(err)
				}
				return Snapshot(tr, MetaFromResult(tc.mach.Name, res, cfg)), res.Makespan
			}

			rep, before := run(tc.cbnodes)
			if len(findBy(Analyze(rep), "cb-mismatch")) == 0 {
				t.Fatal("mismatched cb_nodes not detected")
			}
			deltas := Suggest(rep)
			var cb *HintsDelta
			for i := range deltas {
				if deltas[i].Param == "cb_nodes" {
					cb = &deltas[i]
				}
			}
			if cb == nil || cb.CBNodes == nil {
				t.Fatalf("Suggest proposed no cb_nodes delta: %+v", deltas)
			}
			if *cb.CBNodes != rep.FS.DataServers {
				t.Fatalf("cb_nodes delta = %d, want the data-server count %d", *cb.CBNodes, rep.FS.DataServers)
			}

			rep2, after := run(*cb.CBNodes)
			if after > before {
				t.Fatalf("suggested cb_nodes=%d made the run slower: %.6fs -> %.6fs", *cb.CBNodes, before, after)
			}
			if len(findBy(Analyze(rep2), "cb-mismatch")) != 0 {
				t.Fatal("cb-mismatch still detected after applying the suggestion")
			}
			t.Logf("makespan %.6fs -> %.6fs with cb_nodes=%d", before, after, *cb.CBNodes)
		})
	}
}
