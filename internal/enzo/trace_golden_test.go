package enzo

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpiio"
	"repro/internal/obs"
	"repro/internal/pfs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/trace_tiny.json from the current exporter")

// traceGoldenRow pins one run's Perfetto export by length and digest: the
// exports are 6-22 MB each, and a digest already says "not a byte moved".
type traceGoldenRow struct {
	Name   string `json:"name"`
	Bytes  int    `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// deadServerAtRestart kills data server 3 the instant the restart phase of
// an otherwise healthy run of spec begins (runs are deterministic, so the
// faulted run follows the healthy timeline up to the failure).
func deadServerAtRestart(t *testing.T, spec RunSpec) func(pfs.FileSystem) pfs.FileSystem {
	t.Helper()
	spec.Tracer = obs.NewTracer()
	if _, err := Run(spec); err != nil {
		t.Fatalf("healthy reference run: %v", err)
	}
	restartStart := -1.0
	for _, sp := range spec.Tracer.Spans() {
		if sp.Name == "phase:restart" && (restartStart < 0 || sp.Start < restartStart) {
			restartStart = sp.Start
		}
	}
	if restartStart < 0 {
		t.Fatal("no restart phase span in healthy run")
	}
	return func(fs pfs.FileSystem) pfs.FileSystem {
		fs.(pfs.StripeFaultInjector).FailDataServerAt(3, restartStart+1e-9)
		return fs
	}
}

// deadServerMidRun is a run that ends in a rank panic: data server 3 dies
// at t=0.05 under a three-attempt retry policy, the retries exhaust and the
// run fails with a typed *mpiio.IOError out of rank 0 while its peers are
// parked with spans open.
func deadServerMidRun() RunSpec {
	cfg := Tiny()
	cfg.IORetry = testRetryPolicy()
	cfg.IORetry.MaxAttempts = 3
	return RunSpec{Machine: faultMachCfg(), FS: "pvfs", Procs: 4, Config: cfg, Backend: BackendMPIIO,
		Wrap: func(fs pfs.FileSystem) pfs.FileSystem {
			fs.(pfs.StripeFaultInjector).FailDataServerAt(3, 0.05)
			return fs
		}}
}

// TestFailedTracedRunIsDeterministic: a run that ends in an error is as
// reproducible as one that succeeds. The engine unwinds every parked rank —
// each closing its open spans through its deferred Ends — in rank order and
// before Run returns, so the export of a failed run is one byte string, not
// a race between the reader and ranks still unwinding.
func TestFailedTracedRunIsDeterministic(t *testing.T) {
	digests := map[[sha256.Size]byte]int{}
	errs := map[string]int{}
	for i := 0; i < 40; i++ {
		spec := deadServerMidRun()
		spec.Tracer = obs.NewTracer()
		_, err := Run(spec)
		if _, ok := mpiio.ExtractIOError(err); !ok {
			t.Fatalf("run %d: want *mpiio.IOError, got %v", i, err)
		}
		errs[err.Error()]++
		var buf bytes.Buffer
		if err := spec.Tracer.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		digests[sha256.Sum256(buf.Bytes())]++
	}
	if len(digests) != 1 || len(errs) != 1 {
		t.Fatalf("40 identical failed runs gave %d distinct trace exports and %d distinct errors: %v", len(digests), len(errs), errs)
	}
}

// TestTraceExportGolden pins Tracer.WriteTrace byte-for-byte on Tiny/np=4
// runs that between them cover every kind of event the exporter renders:
// plain spans with byte counts, attr-rich spans (file, path, dataset, grid,
// dump, deferred, timeout), codec-layer spans, write-behind spans, server
// busy slices with queue-depth counters, the pfs bandwidth counter, and
// spans closed by obs.Unwind with an "aborted" attr.
//
// Castore reads return errors instead of panicking through MPI-IO, so a
// castore run never unwinds a span; the dead-server schedule is therefore
// run twice, over the castore (reads fail over to the second replica) and
// over plain files (the tolerant read-back absorbs the exhausted retries,
// unwinds, and the restart ends in a typed *RestartError). The fifth run
// does not finish at all (deadServerMidRun): its timeline is what the
// engine's teardown leaves behind.
//
// Regenerate with: go test ./internal/enzo -run TraceExportGolden -update-golden
func TestTraceExportGolden(t *testing.T) {
	lzssAsync := Tiny()
	lzssAsync.Codec = "lzss"
	lzssAsync.AsyncIO = true

	scrub := Tiny()
	scrub.IORetry = testRetryPolicy()
	scrub.IORetry.MaxAttempts = 6
	scrub.ScrubOnDump, scrub.Dumps, scrub.Generations = true, 2, 2
	casScrub := scrub
	casScrub.CAStore, casScrub.Replicas = true, 2

	cases := []struct {
		name        string
		spec        RunSpec
		faulted     bool
		wantRestart bool   // the run must end in a *RestartError
		wantIOError bool   // the run must end in an *mpiio.IOError
		wantAttr    string // an Attr key some span must carry
		wantLayer   obs.Layer
	}{
		{name: "mpiio/chiba/pvfs", wantAttr: "file", wantLayer: obs.LayerMPIIO,
			spec: RunSpec{Machine: machine.ChibaCity(), FS: "pvfs", Procs: 4, Config: Tiny(), Backend: BackendMPIIO}},
		{name: "hdf5/chiba/pvfs/lzss/async", wantAttr: "file", wantLayer: obs.LayerCodec,
			spec: RunSpec{Machine: machine.ChibaCity(), FS: "pvfs", Procs: 4, Config: lzssAsync, Backend: BackendHDF5}},
		{name: "mpiio/pvfs/cas2/scrub/dead-server-at-restart", faulted: true, wantAttr: "dump", wantLayer: obs.LayerPFS,
			spec: RunSpec{Machine: faultMachCfg(), FS: "pvfs", Procs: 4, Config: casScrub, Backend: BackendMPIIO}},
		{name: "mpiio/pvfs/scrub/dead-server-at-restart", faulted: true, wantRestart: true, wantAttr: "aborted", wantLayer: obs.LayerMPIIO,
			spec: RunSpec{Machine: faultMachCfg(), FS: "pvfs", Procs: 4, Config: scrub, Backend: BackendMPIIO}},
		{name: "mpiio/pvfs/dead-server-mid-run", wantIOError: true, wantAttr: "aborted", wantLayer: obs.LayerMPIIO,
			spec: deadServerMidRun()},
	}

	got := make([]traceGoldenRow, len(cases))
	for i, tc := range cases {
		spec := tc.spec
		if tc.faulted {
			spec.Wrap = deadServerAtRestart(t, spec)
		}
		tr := obs.NewTracer()
		spec.Tracer = tr
		_, err := Run(spec)
		var rerr *RestartError
		_, isIOError := mpiio.ExtractIOError(err)
		if tc.wantRestart != errors.As(err, &rerr) || tc.wantIOError != isIOError ||
			(err != nil && !tc.wantRestart && !tc.wantIOError) {
			t.Fatalf("%s: run ended in %v (want *RestartError: %v, *mpiio.IOError: %v)", tc.name, err, tc.wantRestart, tc.wantIOError)
		}
		var haveAttr, haveLayer bool
		for _, sp := range tr.Spans() {
			haveLayer = haveLayer || sp.Layer == tc.wantLayer
			for _, a := range sp.Attrs {
				haveAttr = haveAttr || a.Key == tc.wantAttr
			}
		}
		if !haveAttr || !haveLayer {
			t.Fatalf("%s: case no longer covers what it is here for (attr %q: %v, layer %v: %v)",
				tc.name, tc.wantAttr, haveAttr, tc.wantLayer, haveLayer)
		}
		var buf bytes.Buffer
		if err := tr.WriteTrace(&buf); err != nil {
			t.Fatalf("%s: WriteTrace: %v", tc.name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got[i] = traceGoldenRow{Name: tc.name, Bytes: buf.Len(), SHA256: hex.EncodeToString(sum[:])}
	}

	golden := filepath.Join("testdata", "trace_tiny.json")
	if *updateGolden {
		enc, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(enc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
	}
	var want []traceGoldenRow
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d rows, test has %d (regenerate with -update-golden)", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("trace export drifted from %s\n got %+v\nwant %+v", golden, got[i], want[i])
		}
	}
}
