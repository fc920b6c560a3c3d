package amr

import (
	"math"
	"testing"
	"testing/quick"
)

func smallTopGrid() *Grid {
	return NewTopGrid([3]int{16, 16, 16}, 500, DefaultClumps(42, 4), 42)
}

func TestTopGridShapeAndSizes(t *testing.T) {
	g := smallTopGrid()
	if g.Cells() != 16*16*16 {
		t.Fatalf("cells = %d", g.Cells())
	}
	if len(g.Fields) != len(FieldNames) {
		t.Fatalf("fields = %d", len(g.Fields))
	}
	for i, f := range g.Fields {
		if int64(len(f)) != g.Cells()*FieldElemSize {
			t.Fatalf("field %d size %d", i, len(f))
		}
	}
	if g.Particles.N != 500 {
		t.Fatalf("particles = %d", g.Particles.N)
	}
	if g.FieldBytes() != 16*16*16*4*int64(len(FieldNames)) {
		t.Fatalf("FieldBytes = %d", g.FieldBytes())
	}
	if g.ParticleBytes() != 500*BytesPerParticle() {
		t.Fatalf("ParticleBytes = %d", g.ParticleBytes())
	}
}

func TestGenerationDeterministic(t *testing.T) {
	a := smallTopGrid()
	b := smallTopGrid()
	for i := range a.Fields {
		for j := range a.Fields[i] {
			if a.Fields[i][j] != b.Fields[i][j] {
				t.Fatalf("field %d differs at byte %d", i, j)
			}
		}
	}
	for i := 0; i < a.Particles.N; i++ {
		if a.Particles.ID(i) != b.Particles.ID(i) || a.Particles.Position(i) != b.Particles.Position(i) {
			t.Fatalf("particle %d differs", i)
		}
	}
}

func TestDensityPeaksAtClumps(t *testing.T) {
	clumps := []Clump{{Center: [3]float64{0.5, 0.5, 0.5}, Sigma: 0.1, Amp: 10}}
	g := NewTopGrid([3]int{16, 16, 16}, 0, clumps, 1)
	center := float64(g.FieldValue(0, 8, 8, 8))
	corner := float64(g.FieldValue(0, 0, 0, 0))
	if center <= corner {
		t.Fatalf("density center %g <= corner %g", center, corner)
	}
	if corner < background*0.9 {
		t.Fatalf("corner density %g below background", corner)
	}
}

func TestParticlesClusterAroundClumps(t *testing.T) {
	clumps := []Clump{{Center: [3]float64{0.5, 0.5, 0.5}, Sigma: 0.05, Amp: 10}}
	g := NewTopGrid([3]int{8, 8, 8}, 2000, clumps, 7)
	near := 0
	for i := 0; i < g.Particles.N; i++ {
		pos := g.Particles.Position(i)
		d := 0.0
		for k := 0; k < 3; k++ {
			d += (pos[k] - 0.5) * (pos[k] - 0.5)
		}
		if math.Sqrt(d) < 0.2 {
			near++
		}
	}
	if near < g.Particles.N/2 {
		t.Fatalf("only %d/%d particles near the clump: distribution not irregular", near, g.Particles.N)
	}
}

func TestParticlesInsideDomain(t *testing.T) {
	g := smallTopGrid()
	for i := 0; i < g.Particles.N; i++ {
		pos := g.Particles.Position(i)
		for d := 0; d < 3; d++ {
			if pos[d] < 0 || pos[d] >= 1 {
				t.Fatalf("particle %d outside domain: %v", i, pos)
			}
		}
	}
}

func TestParticleRowRoundTrip(t *testing.T) {
	g := smallTopGrid()
	ps2 := NewParticleSet(g.Particles.N)
	for i := 0; i < g.Particles.N; i++ {
		ps2.SetRow(i, g.Particles.Row(i))
	}
	for i := 0; i < g.Particles.N; i++ {
		if ps2.ID(i) != g.Particles.ID(i) || ps2.Position(i) != g.Particles.Position(i) {
			t.Fatalf("row round trip broke particle %d", i)
		}
	}
}

func TestFlagAndCluster(t *testing.T) {
	clumps := []Clump{{Center: [3]float64{0.25, 0.25, 0.25}, Sigma: 0.08, Amp: 20}}
	g := NewTopGrid([3]int{16, 16, 16}, 0, clumps, 1)
	flags := FlagCells(g, 5)
	anyFlag := false
	for _, f := range flags {
		anyFlag = anyFlag || f
	}
	if !anyFlag {
		t.Fatal("no cells flagged")
	}
	boxes := ClusterFlags(g, flags, 1)
	if len(boxes) == 0 {
		t.Fatal("no boxes clustered")
	}
	// Every flagged cell must be inside some box.
	idx := 0
	for z := 0; z < 16; z++ {
		for y := 0; y < 16; y++ {
			for x := 0; x < 16; x++ {
				if flags[idx] {
					in := false
					for _, b := range boxes {
						if z >= b.Lo[0] && z < b.Hi[0] && y >= b.Lo[1] && y < b.Hi[1] &&
							x >= b.Lo[2] && x < b.Hi[2] {
							in = true
						}
					}
					if !in {
						t.Fatalf("flagged cell (%d,%d,%d) not covered", z, y, x)
					}
				}
				idx++
			}
		}
	}
}

func TestClusterBoxesDisjoint(t *testing.T) {
	g := smallTopGrid()
	flags := FlagCells(g, 1.5)
	boxes := ClusterFlags(g, flags, 1)
	for i := 0; i < len(boxes); i++ {
		for j := i + 1; j < len(boxes); j++ {
			overlap := true
			for d := 0; d < 3; d++ {
				if boxes[i].Hi[d] <= boxes[j].Lo[d] || boxes[j].Hi[d] <= boxes[i].Lo[d] {
					overlap = false
				}
			}
			if overlap {
				t.Fatalf("boxes %d and %d overlap: %+v %+v", i, j, boxes[i], boxes[j])
			}
		}
	}
}

func TestProlongGeometryAndData(t *testing.T) {
	g := smallTopGrid()
	box := Box{Lo: [3]int{2, 4, 6}, Hi: [3]int{6, 8, 10}}
	before := g.Particles.N
	child := Refine(g, []Box{box})[0]
	if child.Level != 1 {
		t.Fatalf("child level %d", child.Level)
	}
	want := [3]int{8, 8, 8}
	if child.Dims != want {
		t.Fatalf("child dims %v", child.Dims)
	}
	// Piecewise-constant prolongation: each child cell equals its parent
	// cell for every field.
	for f := range FieldNames {
		for z := 0; z < child.Dims[0]; z++ {
			for y := 0; y < child.Dims[1]; y++ {
				for x := 0; x < child.Dims[2]; x++ {
					pv := g.FieldValue(f, box.Lo[0]+z/2, box.Lo[1]+y/2, box.Lo[2]+x/2)
					cv := child.FieldValue(f, z, y, x)
					if pv != cv {
						t.Fatalf("field %d child(%d,%d,%d)=%g parent=%g", f, z, y, x, cv, pv)
					}
				}
			}
		}
	}
	// Particle conservation: parent + child = before, and child particles
	// are inside the child's bounds.
	if g.Particles.N+child.Particles.N != before {
		t.Fatalf("particles not conserved: %d + %d != %d", g.Particles.N, child.Particles.N, before)
	}
	for i := 0; i < child.Particles.N; i++ {
		pos := child.Particles.Position(i)
		for d := 0; d < 3; d++ {
			if pos[d] < child.LeftEdge[d] || pos[d] >= child.RightEdge[d] {
				t.Fatalf("child particle %d outside bounds", i)
			}
		}
	}
}

func TestBuildHierarchy(t *testing.T) {
	h := BuildHierarchy([3]int{16, 16, 16}, 1000, 2, 2.0, 42)
	if len(h.Grids) < 2 {
		t.Fatalf("hierarchy has %d grids, expected refinement", len(h.Grids))
	}
	if h.Root().Level != 0 || h.Root().Parent != -1 {
		t.Fatal("root malformed")
	}
	// Tree consistency.
	for _, g := range h.Subgrids() {
		if g.Parent < 0 || g.Parent >= len(h.Grids) {
			t.Fatalf("grid %d has bad parent %d", g.ID, g.Parent)
		}
		p := h.Grids[g.Parent]
		if g.Level != p.Level+1 {
			t.Fatalf("grid %d level %d under parent level %d", g.ID, g.Level, p.Level)
		}
		for d := 0; d < 3; d++ {
			if g.LeftEdge[d] < p.LeftEdge[d]-1e-12 || g.RightEdge[d] > p.RightEdge[d]+1e-12 {
				t.Fatalf("grid %d exceeds parent bounds", g.ID)
			}
		}
	}
	// Particle conservation across the whole hierarchy.
	if h.TotalParticles() != 1000 {
		t.Fatalf("total particles %d, want 1000", h.TotalParticles())
	}
}

func TestAssignRoundRobin(t *testing.T) {
	h := BuildHierarchy([3]int{8, 8, 8}, 100, 1, 2.0, 1)
	owners := Assign(h.Grids, 3, RoundRobin)
	for i, o := range owners {
		if o != i%3 {
			t.Fatalf("owners = %v", owners)
		}
	}
}

func TestAssignWorkBalanced(t *testing.T) {
	grids := []*Grid{
		{Dims: [3]int{8, 8, 8}},
		{Dims: [3]int{2, 2, 2}},
		{Dims: [3]int{2, 2, 2}},
		{Dims: [3]int{2, 2, 2}},
	}
	owners := Assign(grids, 2, WorkBalanced)
	var load [2]int64
	for i, o := range owners {
		load[o] += grids[i].Cells()
	}
	// the big grid must be alone on its processor
	if owners[1] == owners[0] || owners[2] == owners[0] || owners[3] == owners[0] {
		t.Fatalf("owners = %v: small grids share the big grid's processor", owners)
	}
}

// Property: work-balanced assignment never leaves a processor with more
// than the max single-grid load above the minimum processor load.
func TestWorkBalanceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := newLCG(seed)
		n := int(rng.next()%20) + 1
		nprocs := int(rng.next()%4) + 1
		grids := make([]*Grid, n)
		maxCells := int64(0)
		for i := range grids {
			d := int(rng.next()%6) + 1
			grids[i] = &Grid{Dims: [3]int{d, d, d}}
			if grids[i].Cells() > maxCells {
				maxCells = grids[i].Cells()
			}
		}
		owners := Assign(grids, nprocs, WorkBalanced)
		load := make([]int64, nprocs)
		for i, o := range owners {
			load[o] += grids[i].Cells()
		}
		lo, hi := load[0], load[0]
		for _, l := range load {
			if l < lo {
				lo = l
			}
			if l > hi {
				hi = l
			}
		}
		return hi-lo <= maxCells
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyQueries(t *testing.T) {
	h := BuildHierarchy([3]int{16, 16, 16}, 200, 2, 2.0, 9)
	total := int64(0)
	for _, g := range h.Grids {
		total += g.TotalBytes()
	}
	if h.TotalBytes() != total {
		t.Fatal("TotalBytes mismatch")
	}
	if h.MaxLevel() < 1 {
		t.Fatal("expected at least one refined level")
	}
	for l := 0; l <= h.MaxLevel(); l++ {
		for _, g := range h.Level(l) {
			if g.Level != l {
				t.Fatal("Level() returned wrong grids")
			}
		}
	}
	if len(h.Subgrids()) != len(h.Grids)-1 {
		t.Fatal("Subgrids count wrong")
	}
}

func TestFieldByName(t *testing.T) {
	g := smallTopGrid()
	if &g.Field("density")[0] != &g.Fields[0][0] {
		t.Fatal("Field lookup wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown field should panic")
		}
	}()
	g.Field("no_such_field")
}

func TestStructureBuilderMatchesFullBuilder(t *testing.T) {
	full := BuildHierarchy([3]int{32, 32, 32}, 2000, 2, 2.0, 1789)
	skel := BuildHierarchyStructure([3]int{32, 32, 32}, 2000, 2, 2.0, 1789)
	if len(full.Grids) != len(skel.Grids) {
		t.Fatalf("grid counts differ: %d vs %d", len(full.Grids), len(skel.Grids))
	}
	for i := range full.Grids {
		f, s := full.Grids[i], skel.Grids[i]
		if f.Dims != s.Dims || f.Level != s.Level || f.Parent != s.Parent ||
			f.LeftEdge != s.LeftEdge || f.RightEdge != s.RightEdge ||
			f.Particles.N != s.Particles.N {
			t.Fatalf("grid %d structure differs: %+v vs %+v (particles %d vs %d)",
				i, f.Dims, s.Dims, f.Particles.N, s.Particles.N)
		}
		if f.TotalBytes() != s.TotalBytes() {
			t.Fatalf("grid %d byte accounting differs", i)
		}
	}
	if full.TotalBytes() != skel.TotalBytes() || full.TotalParticles() != skel.TotalParticles() {
		t.Fatal("hierarchy totals differ")
	}
}

// Property: refinement conserves particles and keeps children inside
// their parents, for random clump fields.
func TestRefinementConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		h := BuildHierarchy([3]int{8, 8, 8}, 300, 2, 1.5, seed%1000)
		if h.TotalParticles() != 300 {
			return false
		}
		for _, g := range h.Subgrids() {
			p := h.Grids[g.Parent]
			for d := 0; d < 3; d++ {
				if g.LeftEdge[d] < p.LeftEdge[d]-1e-12 || g.RightEdge[d] > p.RightEdge[d]+1e-12 {
					return false
				}
			}
			if g.Dims[0]%2 != 0 || g.Dims[1]%2 != 0 || g.Dims[2]%2 != 0 {
				return false // refinement factor 2 implies even extents
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
