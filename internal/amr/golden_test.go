package amr

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/golden"
)

// goldenProblem is one hierarchy the golden pins. The parameters repeat
// enzo's Tiny, AMR64 and AMR128 configs (enzo imports this package, so it
// cannot be asked for them).
type goldenProblem struct {
	name      string
	dims      [3]int
	particles int
	structure bool // BuildHierarchyStructure instead of BuildHierarchy
}

var goldenProblems = []goldenProblem{
	{"Tiny", [3]int{16, 16, 16}, 800, false},
	{"AMR64", [3]int{64, 64, 64}, 64 * 64 * 64 / 2, false},
	{"AMR128", [3]int{128, 128, 128}, 128 * 128 * 128 / 2, false},
	{"AMR64-structure", [3]int{64, 64, 64}, 64 * 64 * 64 / 2, true},
}

func (p goldenProblem) build() *Hierarchy {
	if p.structure {
		return BuildHierarchyStructure(p.dims, p.particles, 2, 2.0, 1789)
	}
	return BuildHierarchy(p.dims, p.particles, 2, 2.0, 1789)
}

// hashArrays is the SHA-256 of a list of byte arrays, each preceded by its
// length, so a nil array (a structure-only field) and a moved boundary both
// change the sum.
func hashArrays(arrays [][]byte) []byte {
	h := sha256.New()
	var n [8]byte
	for _, a := range arrays {
		binary.LittleEndian.PutUint64(n[:], uint64(len(a)))
		h.Write(n[:])
		h.Write(a)
	}
	return h.Sum(nil)
}

// gridLines renders one line per grid of h: everything a refinement decides.
func gridLines(name string, h *Hierarchy) []string {
	var out []string
	for _, g := range h.Grids {
		out = append(out, fmt.Sprintf("%s grid=%d parent=%d level=%d dims=%v left=%v right=%v particles=%d fields=%x particle_arrays=%x",
			name, g.ID, g.Parent, g.Level, g.Dims, g.LeftEdge, g.RightEdge, g.Particles.N,
			hashArrays(g.Fields), hashArrays(g.Particles.Arrays)))
	}
	return out
}

// TestHierarchyGolden pins every byte of every generated hierarchy — the
// tree, each grid's edges and dimensions, its fields and its particle
// arrays in order — for Tiny, AMR64, AMR128 and the AMR64 structure-only
// build. A refinement or generation rewrite must leave it unchanged.
//
// Regenerate with: go test ./internal/amr -run '^TestHierarchyGolden$' -update
// — only in a PR that says which grid moved and why.
func TestHierarchyGolden(t *testing.T) {
	var got []string
	for _, p := range goldenProblems {
		got = append(got, gridLines(p.name, p.build())...)
	}
	golden.Check(t, "testdata/hierarchy.golden", []byte(strings.Join(got, "\n")+"\n"))
}

// TestBuildIndependentOfProcs builds the AMR64 hierarchy on one processor
// and at the default setting: the root's fields fill beside its particles,
// and the result must not depend on how the two are scheduled.
func TestBuildIndependentOfProcs(t *testing.T) {
	p := goldenProblems[1]
	prev := runtime.GOMAXPROCS(1)
	one := gridLines(p.name, p.build())
	runtime.GOMAXPROCS(prev)
	many := gridLines(p.name, p.build())
	if !slices.Equal(one, many) {
		t.Fatalf("%s built at GOMAXPROCS(1) differs from the build at GOMAXPROCS(%d)", p.name, prev)
	}
}
