package enzo

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/faultfs"
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

func storedGoldenPath() string { return filepath.Join("testdata", "stored_tiny.golden") }

// goldenStoredFile returns the pinned "length digest" of one file of one
// case of stored_tiny.golden.
func goldenStoredFile(t *testing.T, caseName, file string) string {
	t.Helper()
	f, err := os.Open(storedGoldenPath())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	in := false
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "case "); ok {
			in = rest == caseName
		} else if rest, ok := strings.CutPrefix(line, "file "+file+" "); ok && in {
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
// Regenerate with: go test ./internal/enzo -run StoredBytesGolden -update-golden
func TestStoredBytesGolden(t *testing.T) {
	cases := storedCases()
	if *updateGolden {
		var all strings.Builder
		for _, tc := range cases {
			res, files := tc.run(t)
			all.WriteString(tc.render(res, files))
		}
		if err := os.WriteFile(storedGoldenPath(), []byte(all.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(storedGoldenPath())
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
	}
	want := map[string]string{}
	for _, block := range strings.Split(string(raw), "case ")[1:] {
		name, _, _ := strings.Cut(block, "\n")
		want[name] = "case " + block
	}
	if len(want) != len(cases) {
		t.Fatalf("golden has %d cases, the table has %d (regenerate with -update-golden)", len(want), len(cases))
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, files := tc.run(t)
			if tc.fault == nil && !res.Verified {
				t.Error("restart did not verify")
			}
			if got := tc.render(res, files); got != want[tc.name] {
				t.Errorf("stored bytes or Result drifted from %s\n%s", storedGoldenPath(), firstDiff(want[tc.name], got))
			}
		})
	}
}

// firstDiff names the first line on which two golden blocks part.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d\n got %s\nwant %s", i+1, gl, wl)
		}
	}
	return "no difference"
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
