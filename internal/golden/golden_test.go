package golden

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheck drives check over a file registered for the test: -update
// writes it, creating testdata/, and each way its bytes can part from the
// output fails with the file, the first differing line and the command.
func TestCheck(t *testing.T) {
	Inventory = append(Inventory, Artefact{Path: "x/testdata/x.golden", Test: "TestX"})
	t.Cleanup(func() { Inventory = Inventory[:len(Inventory)-1] })
	const regen = "\nregenerate with: go test ./x -run '^TestX$' -update"
	path := filepath.Join(t.TempDir(), "x", "testdata", "x.golden")
	want := "one\ntwo\nthree\n"
	if err := check(path, []byte(want), true); err != nil {
		t.Fatalf("-update: %v", err)
	}
	missing := filepath.Join(t.TempDir(), "x", "testdata", "x.golden")
	_, notFound := os.ReadFile(missing)
	unregistered := filepath.Join(filepath.Dir(path), "y.golden")
	for _, tc := range []struct{ name, path, got, msg string }{
		{"equal, as -update wrote it", path, want, "<nil>"},
		{"changed byte", path, "one\ntwO\nthree\n", path + " differs at line 2\n got: twO\nwant: two" + regen},
		{"added line", path, want + "four\n", path + " differs at line 4\n got: four\nwant: " + regen},
		{"missing line", path, "one\nthree\n", path + " differs at line 2\n got: three\nwant: two" + regen},
		{"missing file", missing, want, notFound.Error() + regen},
		{"unregistered path", unregistered, want, "golden: " + unregistered + " has no row in golden.Inventory"},
	} {
		if err := check(tc.path, []byte(tc.got), false); fmt.Sprint(err) != tc.msg {
			t.Errorf("%s: got error %v, want %s", tc.name, err, tc.msg)
		}
	}
}

// TestInventory holds Inventory to the tree: every file under a testdata
// directory has a row, and every row names a file that exists and a test
// declared in that file's package.
func TestInventory(t *testing.T) {
	root := os.DirFS("../..") // go test runs in internal/golden
	seen := map[string]bool{}
	err := fs.WalkDir(root, ".", func(p string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir // .git
		}
		if err == nil && !d.IsDir() && strings.Contains("/"+p, "/testdata/") {
			seen[p] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range Inventory {
		if !seen[a.Path] {
			t.Errorf("%s has a row but no file", a.Path)
		}
		delete(seen, a.Path)
		pkg, _, _ := strings.Cut(a.Path, "/testdata/")
		tests, _ := fs.Glob(root, pkg+"/*_test.go")
		var src []byte
		for _, f := range tests {
			b, _ := fs.ReadFile(root, f) // a file that cannot be read declares nothing
			src = append(src, b...)
		}
		if !bytes.Contains(src, []byte("\nfunc "+a.Test+"(t *testing.T)")) {
			t.Errorf("%s: no %s in ./%s", a.Path, a.Test, pkg)
		}
	}
	for p := range seen {
		t.Errorf("%s has no row in golden.Inventory", p)
	}
}
