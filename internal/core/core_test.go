package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/amr"
	"repro/internal/mpi"
)

func sampleMeta() *HierarchyMeta {
	h := amr.BuildHierarchy([3]int{16, 16, 16}, 500, 2, 2.0, 42)
	return FromHierarchy(h)
}

func TestArraysFixedOrder(t *testing.T) {
	g := GridMeta{Dims: [3]int{8, 8, 8}, NParticles: 100}
	arrays := g.Arrays()
	if len(arrays) != len(amr.FieldNames)+len(amr.ParticleArrays) {
		t.Fatalf("arrays = %d", len(arrays))
	}
	for i, a := range arrays {
		if a.Order != i {
			t.Fatalf("array %d has order %d", i, a.Order)
		}
	}
	if arrays[0].Name != "density" || arrays[0].Pattern != PatternRegular || arrays[0].Rank != 3 {
		t.Fatalf("first array %+v", arrays[0])
	}
	last := arrays[len(arrays)-1]
	if last.Name != "particle_mass" || last.Pattern != PatternIrregular || last.Rank != 1 {
		t.Fatalf("last array %+v", last)
	}
	if arrays[0].Bytes() != 8*8*8*4 {
		t.Fatalf("field bytes %d", arrays[0].Bytes())
	}
	if arrays[8].Name != "particle_id" || arrays[8].Bytes() != 100*8 {
		t.Fatalf("particle_id %+v", arrays[8])
	}
}

func TestGridMetaBytesMatchesAMR(t *testing.T) {
	h := amr.BuildHierarchy([3]int{16, 16, 16}, 500, 1, 2.0, 7)
	m := FromHierarchy(h)
	for i, g := range h.Grids {
		if m.Grids[i].Bytes() != g.TotalBytes() {
			t.Fatalf("grid %d meta bytes %d != amr %d", i, m.Grids[i].Bytes(), g.TotalBytes())
		}
	}
	if m.TotalBytes() != h.TotalBytes() {
		t.Fatal("hierarchy totals differ")
	}
}

func TestMetaEncodeDecodeRoundTrip(t *testing.T) {
	m := sampleMeta()
	b := m.Encode()
	m2, err := DecodeHierarchyMeta(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Grids) != len(m.Grids) {
		t.Fatal("grid count lost")
	}
	for i := range m.Grids {
		if m.Grids[i] != m2.Grids[i] {
			t.Fatalf("grid %d meta changed: %+v vs %+v", i, m.Grids[i], m2.Grids[i])
		}
	}
	if _, err := DecodeHierarchyMeta([]byte("not json")); err == nil {
		t.Fatal("bad metadata accepted")
	}
}

func TestLayoutOffsetsContiguousAndComplete(t *testing.T) {
	m := sampleMeta()
	l := NewLayout(m)
	var expect int64
	for _, g := range m.Grids {
		if l.GridOffset(g.ID) != expect {
			t.Fatalf("grid %d at %d, want %d", g.ID, l.GridOffset(g.ID), expect)
		}
		var inner int64
		for _, a := range g.Arrays() {
			off, length := l.ArrayOffset(g.ID, a.Name)
			if off != expect+inner {
				t.Fatalf("array %s of grid %d at %d, want %d", a.Name, g.ID, off, expect+inner)
			}
			if length != a.Bytes() {
				t.Fatalf("array %s length %d, want %d", a.Name, length, a.Bytes())
			}
			inner += length
		}
		expect += g.Bytes()
	}
	if l.TotalBytes() != expect || l.TotalBytes() != m.TotalBytes() {
		t.Fatalf("layout total %d, want %d", l.TotalBytes(), expect)
	}
}

// TestArrayOffsetMatchesArrays holds the arithmetic ArrayOffset to the list it
// stands for — GridMeta.Arrays, summed in order — on every array of every
// grid of the Tiny problem's hierarchy, and to its reason for existing: a
// lookup allocates nothing.
func TestArrayOffsetMatchesArrays(t *testing.T) {
	m := FromHierarchy(amr.BuildHierarchy([3]int{16, 16, 16}, 800, 2, 2.0, 1789))
	l := NewLayout(m)
	for _, g := range m.Grids {
		want := l.GridOffset(g.ID)
		for _, a := range g.Arrays() {
			if off, length := l.ArrayOffset(g.ID, a.Name); off != want || length != a.Bytes() {
				t.Fatalf("grid %d array %s: (%d, %d), want (%d, %d)", g.ID, a.Name, off, length, want, a.Bytes())
			}
			want += a.Bytes()
		}
	}
	last := m.Grids[len(m.Grids)-1].ID
	name := amr.ParticleArrays[len(amr.ParticleArrays)-1].Name
	if allocs := testing.AllocsPerRun(100, func() { l.ArrayOffset(last, name) }); allocs != 0 {
		t.Fatalf("ArrayOffset allocates %v times per lookup, want 0", allocs)
	}
}

func TestLayoutUnknownArrayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLayout(sampleMeta()).ArrayOffset(0, "bogus")
}

func TestRecommend(t *testing.T) {
	field := ArrayMeta{Rank: 3, Pattern: PatternRegular}
	particles := ArrayMeta{Rank: 1, Pattern: PatternIrregular}
	if Recommend(field, true) != MethodCollective {
		t.Fatal("regular 3-D should use collective I/O")
	}
	if Recommend(particles, true) != MethodBlockwiseRedistribute {
		t.Fatal("irregular should use block-wise + redistribution")
	}
	if Recommend(field, false) != MethodSerialRoot || Recommend(particles, false) != MethodSerialRoot {
		t.Fatal("serial library must funnel through root")
	}
}

func TestMethodAndPatternStrings(t *testing.T) {
	for _, m := range []Method{MethodCollective, MethodBlockwiseRedistribute, MethodSerialRoot, Method(99)} {
		if m.String() == "" {
			t.Fatal("empty method string")
		}
	}
	for _, p := range []Pattern{PatternRegular, PatternIrregular, Pattern(99)} {
		if p.String() == "" {
			t.Fatal("empty pattern string")
		}
	}
}

// Property: OwnerOfPosition agrees with BlockDecompose3D — a particle's
// owner is the rank whose field block contains the particle's cell.
func TestOwnerOfPositionConsistentWithBlocks(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := GridMeta{
			Dims:      [3]int{rng.Intn(12) + 2, rng.Intn(12) + 2, rng.Intn(12) + 2},
			LeftEdge:  [3]float64{0, 0, 0},
			RightEdge: [3]float64{1, 1, 1},
		}
		pz, py, px := rng.Intn(3)+1, rng.Intn(3)+1, rng.Intn(3)+1
		for trial := 0; trial < 20; trial++ {
			pos := [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
			owner := OwnerOfPosition(pos, g, pz, py, px)
			if owner < 0 || owner >= pz*py*px {
				return false
			}
			cell := CellOfPosition(pos, g)
			sub := mpi.BlockDecompose3D(g.Dims, pz, py, px, owner, 4)
			for d := 0; d < 3; d++ {
				if cell[d] < sub.Starts[d] || cell[d] >= sub.Starts[d]+sub.Subsizes[d] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestOwnerOfPositionSubGridEdges(t *testing.T) {
	// A grid not at the origin: positions map via the grid's own edges.
	g := GridMeta{
		Dims:      [3]int{4, 4, 4},
		LeftEdge:  [3]float64{0.5, 0.5, 0.5},
		RightEdge: [3]float64{1.0, 1.0, 1.0},
	}
	if OwnerOfPosition([3]float64{0.51, 0.51, 0.51}, g, 2, 1, 1) != 0 {
		t.Fatal("low corner should belong to rank 0")
	}
	if OwnerOfPosition([3]float64{0.99, 0.51, 0.51}, g, 2, 1, 1) != 1 {
		t.Fatal("high-z position should belong to rank 1")
	}
}

// Property: BlockRange tiles [0, n) exactly.
func TestBlockRangeProperty(t *testing.T) {
	f := func(nRaw uint16, sizeRaw uint8) bool {
		n := int64(nRaw)
		size := int(sizeRaw%16) + 1
		var covered int64
		prevHi := int64(0)
		for r := 0; r < size; r++ {
			lo, hi := BlockRange(n, size, r)
			if lo != prevHi || hi < lo {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == n && prevHi == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockIndexOfCellBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range cell")
		}
	}()
	blockIndexOfCell(5, 5, 2)
}
