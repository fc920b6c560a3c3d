package enzo

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/golden"
	"repro/internal/pfs"
)

// storedCase is one composition whose stored bytes are pinned: every run
// writes three dumps of one state, so generations 1 and 2 (and every replica
// and re-dump) must store what generation 0 stored.
type storedCase struct {
	name    string
	backend Backend
	cfg     Config
	fault   *faultfs.Config // injected under the run when non-nil
}

// storedCases: codec × container × transport with three dumps, plus the
// refining, replicated, scrubbed castore run of the dedup benchmark — clean,
// and with every 22nd chunk write corrupted, which (found by scanning EveryN)
// fails five scrubs, forces three re-dumps and leaves the newest generation
// dirty, so the restart falls back one generation and verifies.
func storedCases() []storedCase {
	var cases []storedCase
	for _, codec := range []string{"rle", "delta", "lzss"} {
		for _, backend := range []Backend{BackendMPIIO, BackendHDF5} {
			for _, async := range []bool{false, true} {
				cfg := Tiny()
				cfg.Dumps, cfg.Codec, cfg.AsyncIO = 3, codec, async
				name := fmt.Sprintf("%s/%s/sync", backend, codec)
				if async {
					name = fmt.Sprintf("%s/%s/async", backend, codec)
				}
				cases = append(cases, storedCase{name: name, backend: backend, cfg: cfg})
			}
		}
	}
	cas := Tiny()
	cas.Dumps, cas.Codec, cas.RefineCycles = 3, "lzss", 1
	cas.CAStore, cas.Replicas, cas.ScrubOnDump = true, 2, true
	cases = append(cases, storedCase{name: "cas2/lzss/scrub/refine", backend: BackendMPIIO, cfg: cas})
	faulted := cas
	faulted.MaxRedumps = 1
	cases = append(cases, storedCase{name: "cas2/lzss/scrub/refine/corrupt", backend: BackendMPIIO, cfg: faulted,
		fault: &faultfs.Config{Mode: faultfs.CorruptWrite, EveryN: 22, MinBytes: 2048, FileSubstr: "cas/"}})
	return cases
}

// run executes the case on Tiny/np=4/pvfs and returns its Result and the
// final contents of the namespace (beneath any fault injector).
func (tc storedCase) run(t *testing.T) (*Result, map[string][]byte) {
	t.Helper()
	return tc.runWith(t, nil)
}

// runWith is run with prepare shown every rank's Sim before it starts.
func (tc storedCase) runWith(t *testing.T, prepare func(*Sim)) (*Result, map[string][]byte) {
	t.Helper()
	var bare pfs.FileSystem
	res, err := run(RunSpec{Machine: faultMachCfg(), FS: "pvfs", Procs: 4, Config: tc.cfg, Backend: tc.backend,
		Wrap: func(fs pfs.FileSystem) pfs.FileSystem {
			bare = fs
			if tc.fault != nil {
				return faultfs.Wrap(fs, *tc.fault)
			}
			return fs
		},
	}, prepare)
	var rerr *RestartError
	if err != nil && !errors.As(err, &rerr) {
		t.Fatalf("%s: %v", tc.name, err)
	}
	return res, bare.Snapshot()
}

// render is the case's golden text: the Result (floats print in their
// shortest round-trip form, so a moved bit shows), then every file of the
// namespace by name with its length and SHA-256.
func (tc storedCase) render(res *Result, files map[string][]byte) string {
	var b strings.Builder
	fmt.Fprintf(&b, "case %s\nresult %+v\n", tc.name, *res)
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "file %s %d %x\n", name, len(files[name]), sha256.Sum256(files[name]))
	}
	return b.String()
}

const storedGolden = "testdata/stored_tiny.golden"

// storedRows cuts stored_tiny.golden into its cases, each from its "case "
// line to the next.
func storedRows(file []byte) [][]byte {
	var rows [][]byte
	for len(file) > 0 {
		n := bytes.Index(file, []byte("\ncase ")) + 1
		if n == 0 {
			n = len(file)
		}
		rows, file = append(rows, file[:n]), file[n:]
	}
	return rows
}

// goldenStoredFile returns the pinned "length digest" of one file of one
// case of stored_tiny.golden.
func goldenStoredFile(t *testing.T, caseName, file string) string {
	t.Helper()
	for _, row := range storedRows(golden.Read(t, storedGolden)) {
		_, rest, ok := strings.Cut(string(row), "\nfile "+file+" ")
		if ok && bytes.HasPrefix(row, []byte("case "+caseName+"\n")) {
			rest, _, _ = strings.Cut(rest, "\n")
			return rest
		}
	}
	t.Fatalf("stored_tiny.golden has no file %q in case %q", file, caseName)
	return ""
}

// TestStoredBytesGolden pins what a multi-dump run leaves in the namespace —
// every file by name, length and digest — and its Result, for the
// compositions in which one array is packed, chunked or keyed more than
// once: later generations, replicas, re-dumps. Generated before anything
// remembered a packed array; a change that reuses one must leave it alone.
// Regenerate with: go test ./internal/enzo -run '^TestStoredBytesGolden$' -update
func TestStoredBytesGolden(t *testing.T) {
	cases := storedCases()
	rows := golden.NewRows(t, storedGolden, len(cases), storedRows, func(rows [][]byte) []byte { return bytes.Join(rows, nil) })
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, files := tc.run(t)
			if tc.fault == nil && !res.Verified {
				t.Error("restart did not verify")
			}
			rows.Check(t, i, []byte(tc.render(res, files)))
		})
	}
	rows.Done(t)
}

// TestFaultInLaterGenerationLeavesEarlierBytes: three dumps of one state may
// hand the store one buffer three times, so an injector that flipped or tore
// it in place for dump01 would damage dump00 as well. Every write into dump01
// is corrupted (then torn); every dump00 file must still hold the bytes the
// clean run's golden pins, and the restart from dump02 must verify.
func TestFaultInLaterGenerationLeavesEarlierBytes(t *testing.T) {
	for _, clean := range storedCases() {
		if clean.cfg.Codec != "lzss" || clean.cfg.CAStore {
			continue // castore containers are shared by the generations: no dump00 file of their own
		}
		for _, mode := range []faultfs.Mode{faultfs.CorruptWrite, faultfs.TornWrite} {
			tc := clean
			tc.fault = &faultfs.Config{Mode: mode, EveryN: 1, MinBytes: 2048, FileSubstr: "dump01"}
			t.Run(fmt.Sprintf("%s/mode%d", tc.name, mode), func(t *testing.T) {
				res, files := tc.run(t)
				if !res.Verified {
					t.Error("restart from dump02 did not verify")
				}
				checked := 0
				for name, data := range files {
					if !strings.HasPrefix(name, "dump00") {
						continue
					}
					got := fmt.Sprintf("%d %x", len(data), sha256.Sum256(data))
					if want := goldenStoredFile(t, clean.name, name); got != want {
						t.Errorf("%s: a fault injected into dump01 changed it: got %s, want %s", name, got, want)
					}
					checked++
				}
				if checked == 0 {
					t.Fatal("no dump00 file in the namespace")
				}
			})
		}
	}
}
