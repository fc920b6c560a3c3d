// Package golden checks the repository's golden files: test output pinned
// byte for byte under a testdata directory. One switch, -update, makes every
// check write its file instead; Check pins one file, Rows one whose rows run
// as subtests, and Inventory lists every file with the test that generates
// it. Only _test.go files import this package.
package golden

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files instead of comparing against them")

// Check compares got with the golden file at path, relative to the test's
// package directory, and fails t naming the first line that differs and the
// command that regenerates the file; under -update it writes got there. The
// file must have a row in Inventory.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if err := check(path, got, *update); err != nil {
		t.Error(err)
	}
}

func check(path string, got []byte, update bool) error {
	a, want, err := read(path)
	switch {
	case update && a.Path != "":
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, got, 0o644)
	case err == nil && !bytes.Equal(got, want):
		err = fmt.Errorf("%s %s\nregenerate with: %s", path, diff(want, got), a.Command())
	}
	return err
}

// Read returns the golden file at path, for a test that reads what another
// test pins.
func Read(t testing.TB, path string) []byte {
	t.Helper()
	_, b, err := read(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// read returns the Inventory row of the golden file at path, zero if there is
// none, and the file's bytes.
func read(path string) (Artefact, []byte, error) {
	abs, err := filepath.Abs(path)
	for _, a := range Inventory {
		if err == nil && strings.HasSuffix(filepath.ToSlash(abs), "/"+a.Path) {
			b, err := os.ReadFile(path)
			if err != nil {
				err = fmt.Errorf("%v\nregenerate with: %s", err, a.Command())
			}
			return a, b, err
		}
	}
	return Artefact{}, nil, fmt.Errorf("golden: %s has no row in golden.Inventory", path)
}

// diff names the first line on which got and want part.
func diff(want, got []byte) string {
	const end = "(past the end)"
	g, w := append(strings.Split(string(got), "\n"), end), append(strings.Split(string(want), "\n"), end)
	i := 0
	for i < len(g)-1 && i < len(w)-1 && g[i] == w[i] {
		i++
	}
	return fmt.Sprintf("differs at line %d\n got: %s\nwant: %s", i+1, g[i], w[i])
}

// Rows is Check for a golden file whose rows run as subtests: each subtest
// compares its own row, and the parent checks the whole file, or writes it
// under -update, once every row has run.
type Rows struct {
	path string
	want [][]byte // nil under -update
	got  [][]byte
	join func(rows [][]byte) []byte
}

// NewRows reads the golden file at path for n rows: split cuts the file into
// rows, and join puts rows back together into the file.
func NewRows(t testing.TB, path string, n int, split func(file []byte) [][]byte, join func(rows [][]byte) []byte) *Rows {
	t.Helper()
	r := &Rows{path: path, got: make([][]byte, n), join: join}
	if !*update {
		r.want = split(Read(t, path))
	}
	return r
}

// Check compares row i's bytes; call it from row i's subtest.
func (r *Rows) Check(t testing.TB, i int, got []byte) {
	t.Helper()
	r.got[i] = got
	var want []byte
	if i < len(r.want) {
		want = r.want[i]
	}
	if !*update && !bytes.Equal(got, want) {
		t.Errorf("row %d of %s %s", i+1, r.path, diff(want, got))
	}
}

// Done checks the whole file; call it from the parent after the subtests. A
// run that left a row out (a -run filter, a row that stopped early) checks
// only the rows that ran, and cannot regenerate the file.
func (r *Rows) Done(t testing.TB) {
	t.Helper()
	if slices.ContainsFunc(r.got, func(g []byte) bool { return g == nil }) {
		if *update {
			t.Fatalf("%s: -update needs every row", r.path)
		}
		return
	}
	Check(t, r.path, r.join(r.got))
}

// An Artefact is one golden file: where it lives, the test that generates
// it, what it pins, and the CHANGES.md entries that set it (the first) and
// moved it.
type Artefact struct {
	Path string // from the repository root, slash-separated
	Test string
	Pins string
	PRs  []int
}

// Command is the one command that regenerates the artefact.
func (a Artefact) Command() string {
	pkg, _, _ := strings.Cut(a.Path, "/testdata/")
	return fmt.Sprintf("go test ./%s -run '^%s$' -update", pkg, a.Test)
}

// Inventory is every file under a testdata directory, one row each.
// TestInventory holds it to the tree both ways, and Check refuses a path it
// does not list.
var Inventory = []Artefact{
	{"cmd/iobench/testdata/quick_all.txt", "TestQuickAllGolden",
		"stdout of iobench -exp all -quick, the scale table's events/sec cells masked to -", []int{17, 33}},
	{"cmd/iodoctor/testdata/tiny_np4.json", "TestJSONGolden",
		"the iodoctor -format json diagnosis document of Tiny/np=4", []int{6, 9, 13, 35}},
	{"cmd/iodoctor/testdata/trace_tiny.txt", "TestTraceReportGolden",
		"the I/O characterization and pattern table iodoctor -format counters prints, six Tiny/np=4 chiba/pvfs compositions", []int{19, 49}},
	{"internal/amr/testdata/hierarchy.golden", "TestHierarchyGolden",
		"every grid of Tiny, AMR64, AMR128 and AMR64 structure-only: tree, edges, dims, field and particle digests", []int{30}},
	{"internal/castore/testdata/chunker.golden", "TestChunkerGolden",
		"chunk count and digest of every bound and key of each Tiny array at two Params", []int{22}},
	{"internal/compress/testdata/codec.golden", "TestCodecStreamGolden",
		"length and SHA-256 of Compress and Pack for rle, delta and lzss over 272 inputs", []int{22}},
	{"internal/enzo/testdata/matrix_tiny.json", "TestMatrixGolden",
		"clocks as float bits, bytes and counters of 128 I/O path compositions and three faulted runs, Tiny/np=4", []int{12, 13}},
	{"internal/enzo/testdata/stored_tiny.golden", "TestStoredBytesGolden",
		"the Result and every stored file's length and SHA-256 of 14 three-dump compositions", []int{24}},
	{"internal/enzo/testdata/trace_tiny.json", "TestTraceExportGolden",
		"length and SHA-256 of the Perfetto export of five Tiny/np=4 runs, a failed one included", []int{18, 20}},
	{"internal/mpiio/testdata/twophase.golden", "TestTwoPhaseRequestGolden",
		"every device request, message count, clock and file digest of 37 two-phase views × pvfs/gpfs × blocking/behind", []int{21}},
	{"internal/pfs/testdata/models.golden", "TestModelScriptGolden",
		"clocks as float bits, errors and Stats of one create/request/lend/deadline/close/placement/restore script on xfs, gpfs, pvfs and local", []int{40}},
	{"internal/sim/testdata/dispatch.golden", "TestDispatchGolden",
		"dispatch trace digest, Events, final clocks and error texts of 20 programs on both engines", []int{20}},
}
