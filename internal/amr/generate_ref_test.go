package amr

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// Reference refinement: the per-cell prolongation, the box-by-box particle
// move and the element-wise Select that Refine replaced. FuzzRefine holds
// Refine to them byte for byte.

// setFieldValue writes field f at cell (z,y,x).
func (g *Grid) setFieldValue(f int, z, y, x int, v float32) {
	off := g.cellIndex(z, y, x) * FieldElemSize
	binary.LittleEndian.PutUint32(g.Fields[f][off:], math.Float32bits(v))
}

// prolongRef creates one child over box, a cell at a time, and moves the
// parent's particles inside it to the child.
func prolongRef(parent *Grid, box Box) *Grid {
	w := parent.CellWidth()
	child := &Grid{
		Level: parent.Level + 1,
		Dims: [3]int{
			(box.Hi[0] - box.Lo[0]) * RefinementFactor,
			(box.Hi[1] - box.Lo[1]) * RefinementFactor,
			(box.Hi[2] - box.Lo[2]) * RefinementFactor,
		},
	}
	for d := 0; d < 3; d++ {
		child.LeftEdge[d] = parent.LeftEdge[d] + float64(box.Lo[d])*w[d]
		child.RightEdge[d] = parent.LeftEdge[d] + float64(box.Hi[d])*w[d]
	}
	child.Fields = make([][]byte, len(FieldNames))
	for i := range child.Fields {
		if parent.Fields[i] == nil {
			continue
		}
		child.Fields[i] = make([]byte, child.Cells()*FieldElemSize)
	}
	for f := range FieldNames {
		if child.Fields[f] == nil {
			continue
		}
		for z := 0; z < child.Dims[0]; z++ {
			pz := box.Lo[0] + z/RefinementFactor
			for y := 0; y < child.Dims[1]; y++ {
				py := box.Lo[1] + y/RefinementFactor
				for x := 0; x < child.Dims[2]; x++ {
					px := box.Lo[2] + x/RefinementFactor
					child.setFieldValue(f, z, y, x, parent.FieldValue(f, pz, py, px))
				}
			}
		}
	}
	moveParticlesRef(parent, child)
	return child
}

// moveParticlesRef transfers the parent's particles that fall inside the
// child's bounds to the child.
func moveParticlesRef(parent, child *Grid) {
	var keep, move []int
	for i := 0; i < parent.Particles.N; i++ {
		pos := parent.Particles.Position(i)
		inside := true
		for d := 0; d < 3; d++ {
			if pos[d] < child.LeftEdge[d] || pos[d] >= child.RightEdge[d] {
				inside = false
				break
			}
		}
		if inside {
			move = append(move, i)
		} else {
			keep = append(keep, i)
		}
	}
	child.Particles = selectRef(&parent.Particles, move)
	parent.Particles = selectRef(&parent.Particles, keep)
}

// selectRef is Select with one copy call per element.
func selectRef(ps *ParticleSet, idx []int) ParticleSet {
	out := NewParticleSet(len(idx))
	for k, a := range ParticleArrays {
		src, dst := ps.Arrays[k], out.Arrays[k]
		for j, i := range idx {
			copy(dst[j*a.ElemSize:(j+1)*a.ElemSize], src[i*a.ElemSize:(i+1)*a.ElemSize])
		}
	}
	return out
}

// refineRef is the loop Refine replaced: prolong, then move, box by box.
func refineRef(parent *Grid, boxes []Box) []*Grid {
	children := make([]*Grid, len(boxes))
	for k, box := range boxes {
		children[k] = prolongRef(parent, box)
	}
	return children
}

// fuzzGrid is a parent grid of the given dims over a random sub-box of the
// unit domain. Its density lies in [0, 4) so FlagCells at a threshold in that
// range flags some cells; every other field is random bits, NaN payloads
// included. With structure set only the density is present.
func fuzzGrid(dims [3]int, structure bool, rng *lcg) *Grid {
	g := &Grid{ID: int(rng.next() % 50), Level: int(rng.next() % 4), Dims: dims}
	for d := 0; d < 3; d++ {
		g.LeftEdge[d] = 0.5 * rng.float()
		g.RightEdge[d] = g.LeftEdge[d] + 0.125 + 0.5*rng.float()
	}
	g.Fields = make([][]byte, len(FieldNames))
	for f := range g.Fields {
		if f > 0 && structure {
			continue
		}
		g.Fields[f] = make([]byte, g.Cells()*FieldElemSize)
		for i := 0; i < int(g.Cells()); i++ {
			v := uint32(rng.next() >> 32)
			if f == 0 {
				v = math.Float32bits(float32(4 * rng.float()))
			}
			binary.LittleEndian.PutUint32(g.Fields[f][i*FieldElemSize:], v)
		}
	}
	return g
}

// randomBox is a non-empty box inside dims.
func randomBox(dims [3]int, rng *lcg) Box {
	var b Box
	for d := 0; d < 3; d++ {
		b.Lo[d] = int(rng.next() % uint64(dims[d]))
		b.Hi[d] = b.Lo[d] + 1 + int(rng.next()%uint64(dims[d]-b.Lo[d]))
	}
	return b
}

// fuzzBoxes picks the refinement boxes for g: the clustered boxes of a
// random threshold, hand-made boxes that may overlap, a box split into
// adjacent halves, or the clustered boxes plus one that overlaps them.
func fuzzBoxes(g *Grid, mode uint8, rng *lcg) []Box {
	clustered := func() []Box {
		minCells := 1
		if rng.next()%2 == 0 {
			minCells = 8
		}
		return ClusterFlags(g, FlagCells(g, 4*rng.float()), minCells)
	}
	switch mode % 4 {
	case 0:
		return clustered()
	case 1:
		boxes := make([]Box, 1+rng.next()%9)
		for i := range boxes {
			boxes[i] = randomBox(g.Dims, rng)
		}
		return boxes
	case 2:
		var boxes []Box
		for n := 1 + rng.next()%3; n > 0; n-- {
			b := randomBox(g.Dims, rng)
			d := int(rng.next() % 3)
			if b.Hi[d]-b.Lo[d] < 2 {
				boxes = append(boxes, b)
				continue
			}
			cut := b.Lo[d] + 1 + int(rng.next()%uint64(b.Hi[d]-b.Lo[d]-1))
			lo, hi := b, b
			lo.Hi[d], hi.Lo[d] = cut, cut
			boxes = append(boxes, lo, hi)
		}
		return boxes
	default:
		return append(clustered(), randomBox(g.Dims, rng))
	}
}

// fuzzParticles gives g n particles whose coordinates are drawn, one by one,
// from: uniform inside the grid, exactly on a face of one of the boxes'
// children, NaN, ±Inf, just outside the grid, or on its right edge.
func fuzzParticles(g *Grid, boxes []Box, n int, rng *lcg) {
	w := g.CellWidth()
	ps := NewParticleSet(n)
	for i := 0; i < n; i++ {
		ps.SetID(i, int64(i))
		var pos [3]float64
		for d := 0; d < 3; d++ {
			span := g.RightEdge[d] - g.LeftEdge[d]
			switch k := rng.next() % 10; {
			case k < 4 || (k < 7 && len(boxes) == 0):
				pos[d] = g.LeftEdge[d] + span*rng.float()
			case k < 7:
				b := boxes[rng.next()%uint64(len(boxes))]
				face := b.Lo[d]
				if rng.next()%2 == 0 {
					face = b.Hi[d]
				}
				pos[d] = g.LeftEdge[d] + float64(face)*w[d] // a child edge, as Refine computes it
			case k == 7:
				pos[d] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.next()%3]
			case k == 8:
				pos[d] = []float64{g.LeftEdge[d] - 0.01*span, g.RightEdge[d] + 0.01*span}[rng.next()%2]
			default:
				pos[d] = g.RightEdge[d]
			}
		}
		ps.SetPosition(i, pos)
		for k := 4; k < len(ParticleArrays); k++ {
			binary.LittleEndian.PutUint32(ps.Arrays[k][i*4:], uint32(rng.next()>>32))
		}
	}
	g.Particles = ps
}

func cloneGrid(g *Grid) *Grid {
	c := *g
	c.Fields = make([][]byte, len(g.Fields))
	for f, b := range g.Fields {
		c.Fields[f] = bytes.Clone(b)
	}
	c.Particles = g.Particles.Select(seq(g.Particles.N))
	return &c
}

func seq(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func sameArrays(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) || !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// FuzzRefine checks Refine byte for byte against the reference loop —
// prolong, then move, box by box in order — on grids of 1–12 cells per axis
// (odd sizes included), over clustered, overlapping and adjacent boxes,
// with particles on child faces, at NaN and ±Inf, and outside the grid.
func FuzzRefine(f *testing.F) {
	for _, s := range []struct {
		dz, dy, dx, mode uint8
		n                uint16
		seed             int64
	}{
		{16, 16, 16, 0, 200, 1}, {7, 5, 3, 1, 300, 2}, {12, 1, 9, 2, 150, 3},
		{11, 11, 11, 3, 400, 4}, {1, 1, 1, 1, 50, 5}, {8, 8, 8, 6, 0, 6},
	} {
		f.Add(s.dz, s.dy, s.dx, s.mode, s.n, s.seed)
	}
	f.Fuzz(func(t *testing.T, dz, dy, dx, mode uint8, n uint16, seed int64) {
		rng := newLCG(seed)
		dims := [3]int{int(dz)%12 + 1, int(dy)%12 + 1, int(dx)%12 + 1}
		got := fuzzGrid(dims, mode&4 != 0, rng)
		boxes := fuzzBoxes(got, mode, rng)
		fuzzParticles(got, boxes, int(n)%600, rng)
		want := cloneGrid(got)

		wantChildren := refineRef(want, boxes)
		gotChildren := Refine(got, boxes)
		if len(gotChildren) != len(wantChildren) {
			t.Fatalf("%d children, reference %d", len(gotChildren), len(wantChildren))
		}
		for k, c := range gotChildren {
			r := wantChildren[k]
			if c.Level != r.Level || c.Dims != r.Dims || c.LeftEdge != r.LeftEdge ||
				c.RightEdge != r.RightEdge || c.Parent != got.ID {
				t.Fatalf("box %v: child level %d dims %v edges %v–%v parent %d, reference level %d dims %v edges %v–%v parent %d",
					boxes[k], c.Level, c.Dims, c.LeftEdge, c.RightEdge, c.Parent,
					r.Level, r.Dims, r.LeftEdge, r.RightEdge, got.ID)
			}
			if !sameArrays(c.Fields, r.Fields) {
				t.Fatalf("box %v: child fields differ from the reference", boxes[k])
			}
			if c.Particles.N != r.Particles.N || !sameArrays(c.Particles.Arrays, r.Particles.Arrays) {
				t.Fatalf("box %v: child has %d particles, reference %d, or their bytes differ",
					boxes[k], c.Particles.N, r.Particles.N)
			}
		}
		if got.Particles.N != want.Particles.N || !sameArrays(got.Particles.Arrays, want.Particles.Arrays) {
			t.Fatalf("parent keeps %d particles, reference %d, or their bytes differ",
				got.Particles.N, want.Particles.N)
		}
		if !sameArrays(got.Fields, want.Fields) {
			t.Fatal("Refine changed the parent's fields")
		}
	})
}
