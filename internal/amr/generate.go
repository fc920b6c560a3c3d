package amr

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"
)

// Clump is one Gaussian over-density in the synthetic initial conditions —
// the stand-in for a proto-cluster of galaxies.
type Clump struct {
	Center [3]float64 // (z, y, x) in the unit domain
	Sigma  float64
	Amp    float64
}

// lcg is a tiny deterministic generator so initial conditions are
// reproducible across runs and platforms without math/rand version drift.
type lcg struct{ s uint64 }

func newLCG(seed int64) *lcg { return &lcg{s: uint64(seed)*2862933555777941757 + 3037000493} }

func (r *lcg) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s
}

// float returns a uniform value in [0, 1).
func (r *lcg) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// gauss returns a standard normal deviate (Box–Muller).
func (r *lcg) gauss() float64 {
	u1 := r.float()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	u2 := r.float()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// DefaultClumps places n clumps deterministically in the unit domain.
func DefaultClumps(seed int64, n int) []Clump {
	rng := newLCG(seed)
	out := make([]Clump, n)
	for i := range out {
		out[i] = Clump{
			Center: [3]float64{rng.float(), rng.float(), rng.float()},
			Sigma:  0.03 + 0.05*rng.float(),
			Amp:    4 + 8*rng.float(),
		}
	}
	return out
}

// background density of the synthetic universe.
const background = 1.0

// NewTopGrid builds the root grid covering the unit domain: baryon fields
// sampled from the clump field, and nParticles particles clustered around
// the clumps (the highly irregular spatial distribution that makes the
// particle I/O pattern irregular).
func NewTopGrid(dims [3]int, nParticles int, clumps []Clump, seed int64) *Grid {
	return newTopGrid(dims, nParticles, clumps, seed, false)
}

func newTopGrid(dims [3]int, nParticles int, clumps []Clump, seed int64, densityOnly bool) *Grid {
	g := &Grid{
		Level:     0,
		Dims:      dims,
		LeftEdge:  [3]float64{0, 0, 0},
		RightEdge: [3]float64{1, 1, 1},
		Parent:    -1,
	}
	g.Fields = make([][]byte, len(FieldNames))
	nFill := len(FieldNames)
	if densityOnly {
		nFill = 1
	}
	for i := 0; i < nFill; i++ {
		g.Fields[i] = make([]byte, g.Cells()*FieldElemSize)
	}
	// The fields and the particles come from independent inputs into
	// disjoint outputs, so the fields fill on a second goroutine while the
	// particles draw their random sequence on this one.
	var filled sync.WaitGroup
	filled.Add(1)
	go func() {
		defer filled.Done()
		fillFields(g, clumps, densityOnly)
	}()
	g.Particles = makeParticles(nParticles, 0, clumps, g.LeftEdge, g.RightEdge, seed+1)
	filled.Wait()
	return g
}

// fillFields samples every baryon field from the clump density field, a row
// at a time. The Gaussian is separable, so per-clump 1-D profiles are
// precomputed, each clump's amplitude times its z and y profiles is taken
// once per row, and the inner loop is one multiply per clump. With
// densityOnly, only field 0 is filled (the others stay nil) — used by the
// structure-only builder, whose refinement decisions depend only on density.
func fillFields(g *Grid, clumps []Clump, densityOnly bool) {
	w := g.CellWidth()
	// profiles[c][d][i] = exp(-((x_i - center)^2) / (2 sigma^2))
	profiles := make([][3][]float64, len(clumps))
	for ci, c := range clumps {
		for d := 0; d < 3; d++ {
			prof := make([]float64, g.Dims[d])
			for i := range prof {
				x := g.LeftEdge[d] + (float64(i)+0.5)*w[d]
				dx := x - c.Center[d]
				prof[i] = math.Exp(-dx * dx / (2 * c.Sigma * c.Sigma))
			}
			profiles[ci][d] = prof
		}
	}
	nx := g.Dims[2]
	rowBytes := nx * FieldElemSize
	amp := make([]float64, len(clumps)) // Amp * profile_z * profile_y, per row
	rows := make([][]byte, len(g.Fields))
	le := binary.LittleEndian
	off := 0
	for z := 0; z < g.Dims[0]; z++ {
		for y := 0; y < g.Dims[1]; y++ {
			for ci, c := range clumps {
				amp[ci] = c.Amp * profiles[ci][0][z] * profiles[ci][1][y]
			}
			for f, field := range g.Fields {
				if field != nil {
					rows[f] = field[off : off+rowBytes]
				}
			}
			for x := 0; x < nx; x++ {
				rho := background
				for ci := range clumps {
					rho += amp[ci] * profiles[ci][2][x]
				}
				o := x * FieldElemSize
				r := float32(rho)
				le.PutUint32(rows[0][o:], math.Float32bits(r)) // density
				if densityOnly {
					continue
				}
				// The other fields are cheap stand-ins with the right
				// storage shape.
				le.PutUint32(rows[1][o:], math.Float32bits(r*1.5))                    // total_energy
				le.PutUint32(rows[2][o:], math.Float32bits(r*0.9))                    // internal_energy
				le.PutUint32(rows[3][o:], math.Float32bits(float32(0.01*float64(x)))) // velocity_x
				le.PutUint32(rows[4][o:], math.Float32bits(float32(0.01*float64(y)))) // velocity_y
				le.PutUint32(rows[5][o:], math.Float32bits(float32(0.01*float64(z)))) // velocity_z
				le.PutUint32(rows[6][o:], math.Float32bits(100*r))                    // temperature
				le.PutUint32(rows[7][o:], math.Float32bits(r*0.84))                   // dark_matter
			}
			off += rowBytes
		}
	}
}

// makeParticles places n particles clustered around the clumps, clipped to
// the [lo, hi) box, with IDs starting at firstID.
func makeParticles(n int, firstID int64, clumps []Clump, lo, hi [3]float64, seed int64) ParticleSet {
	ps := NewParticleSet(n)
	rng := newLCG(seed)
	for i := 0; i < n; i++ {
		ps.SetID(i, firstID+int64(i))
		var pos [3]float64
		if len(clumps) > 0 && rng.float() < 0.85 {
			c := clumps[int(rng.next()%uint64(len(clumps)))]
			for d := 0; d < 3; d++ {
				pos[d] = c.Center[d] + rng.gauss()*c.Sigma
			}
		} else {
			for d := 0; d < 3; d++ {
				pos[d] = rng.float()
			}
		}
		for d := 0; d < 3; d++ {
			span := hi[d] - lo[d]
			// wrap into the box (periodic domain)
			f := math.Mod(pos[d]-lo[d], span)
			if f < 0 {
				f += span
			}
			pos[d] = lo[d] + f
		}
		ps.SetPosition(i, pos)
		// velocities and mass
		for k := 4; k <= 6; k++ {
			putF32(ps.Arrays[k], i, float32(rng.gauss()*0.1))
		}
		putF32(ps.Arrays[7], i, 1.0)
	}
	return ps
}

func putF32(a []byte, i int, v float32) {
	bits := math.Float32bits(v)
	a[i*4] = byte(bits)
	a[i*4+1] = byte(bits >> 8)
	a[i*4+2] = byte(bits >> 16)
	a[i*4+3] = byte(bits >> 24)
}

// Box is a cell-index box within a parent grid, [Lo, Hi).
type Box struct {
	Lo, Hi [3]int
}

// Cells returns the number of parent cells in the box.
func (b Box) Cells() int {
	n := 1
	for d := 0; d < 3; d++ {
		n *= b.Hi[d] - b.Lo[d]
	}
	return n
}

// FlagCells marks cells whose density exceeds threshold, in flat cell order.
func FlagCells(g *Grid, threshold float64) []bool {
	density := g.Fields[0]
	flags := make([]bool, g.Cells())
	for i := range flags {
		flags[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(density[i*FieldElemSize:]))) > threshold
	}
	return flags
}

// ClusterFlags groups flagged cells into refinement boxes using octant
// clustering: the grid is split into 2x2x2 octants and each octant
// contributes the bounding box of its flagged cells (a simplified
// Berger–Colella point clustering that yields at most 8 disjoint boxes).
// Boxes smaller than minCells cells are dropped.
func ClusterFlags(g *Grid, flags []bool, minCells int) []Box {
	var boxes []Box
	half := [3]int{g.Dims[0] / 2, g.Dims[1] / 2, g.Dims[2] / 2}
	for oz := 0; oz < 2; oz++ {
		for oy := 0; oy < 2; oy++ {
			for ox := 0; ox < 2; ox++ {
				lo := [3]int{oz * half[0], oy * half[1], ox * half[2]}
				hi := [3]int{g.Dims[0], g.Dims[1], g.Dims[2]}
				if oz == 0 {
					hi[0] = half[0]
				}
				if oy == 0 {
					hi[1] = half[1]
				}
				if ox == 0 {
					hi[2] = half[2]
				}
				box := Box{Lo: [3]int{math.MaxInt32, math.MaxInt32, math.MaxInt32},
					Hi: [3]int{-1, -1, -1}}
				found := false
				for z := lo[0]; z < hi[0]; z++ {
					for y := lo[1]; y < hi[1]; y++ {
						for x := lo[2]; x < hi[2]; x++ {
							if !flags[g.cellIndex(z, y, x)] {
								continue
							}
							found = true
							c := [3]int{z, y, x}
							for d := 0; d < 3; d++ {
								if c[d] < box.Lo[d] {
									box.Lo[d] = c[d]
								}
								if c[d]+1 > box.Hi[d] {
									box.Hi[d] = c[d] + 1
								}
							}
						}
					}
				}
				if found && box.Cells() >= minCells {
					boxes = append(boxes, box)
				}
			}
		}
	}
	return boxes
}

// RefinementFactor is the mesh refinement ratio between levels.
const RefinementFactor = 2

// Refine creates one child grid per box of the parent, at twice the
// resolution, in box order. Field data is prolonged by piecewise-constant
// injection (each parent cell value copied to its 8 children), and the
// parent's particles are partitioned in one pass: as in ENZO, a particle
// lives on the finest grid containing it. A particle goes to the first box,
// in box order, that contains it, so overlapping boxes resolve as if the
// children were cut one after another. A particle is outside a child when
// some coordinate is < its LeftEdge or >= its RightEdge (so a NaN
// coordinate counts as inside). Each child and the parent keep their
// particles in the parent's order. Children carry the parent's ID as their
// Parent; their own IDs are the caller's to assign.
func Refine(parent *Grid, boxes []Box) []*Grid {
	children := make([]*Grid, len(boxes))
	for k, box := range boxes {
		children[k] = prolong(parent, box)
	}
	parent.Particles = partition(parent.Particles, children)
	return children
}

// prolong creates the child grid over box, with its fields and no particles.
func prolong(parent *Grid, box Box) *Grid {
	w := parent.CellWidth()
	child := &Grid{
		Level: parent.Level + 1,
		Dims: [3]int{
			(box.Hi[0] - box.Lo[0]) * RefinementFactor,
			(box.Hi[1] - box.Lo[1]) * RefinementFactor,
			(box.Hi[2] - box.Lo[2]) * RefinementFactor,
		},
		Parent: parent.ID,
	}
	for d := 0; d < 3; d++ {
		child.LeftEdge[d] = parent.LeftEdge[d] + float64(box.Lo[d])*w[d]
		child.RightEdge[d] = parent.LeftEdge[d] + float64(box.Hi[d])*w[d]
	}
	child.Fields = make([][]byte, len(FieldNames))
	for f, src := range parent.Fields {
		if src != nil { // structure-only hierarchy: prolong present fields only
			child.Fields[f] = inject(src, parent.Dims, box)
		}
	}
	return child
}

// inject returns the child field over box of a parent field, a row at a
// time: each parent cell of a row is stored twice as one 64-bit word, the
// odd child row copies the even one, and the odd child plane the even one.
func inject(src []byte, pdims [3]int, box Box) []byte {
	nz, ny, nx := box.Hi[0]-box.Lo[0], box.Hi[1]-box.Lo[1], box.Hi[2]-box.Lo[2]
	row := nx * RefinementFactor * FieldElemSize
	plane := ny * RefinementFactor * row
	dst := make([]byte, nz*RefinementFactor*plane)
	le := binary.LittleEndian
	o := 0
	for pz := box.Lo[0]; pz < box.Hi[0]; pz++ {
		even := o
		for py := box.Lo[1]; py < box.Hi[1]; py++ {
			s := ((pz*pdims[1]+py)*pdims[2] + box.Lo[2]) * FieldElemSize
			in, out := src[s:s+nx*FieldElemSize], dst[o:o+row]
			for i := 0; i < nx; i++ {
				v := uint64(le.Uint32(in[i*FieldElemSize:]))
				le.PutUint64(out[i*2*FieldElemSize:], v|v<<32)
			}
			copy(dst[o+row:o+2*row], out)
			o += 2 * row
		}
		copy(dst[o:o+plane], dst[even:even+plane])
		o += plane
	}
	return dst
}

// partition hands each child the particles of ps that fall inside it — the
// first child in order that contains a particle takes it — and returns the
// particles no child took. Every set keeps ps's order and is filled by one
// Select.
func partition(ps ParticleSet, children []*Grid) ParticleSet {
	n := len(children)
	dest := make([]int32, ps.N) // child index, or n for the parent
	counts := make([]int, n+1)
	for i := range dest {
		pos := ps.Position(i)
		k := 0
		for ; k < n; k++ {
			c := children[k]
			if !(pos[0] < c.LeftEdge[0] || pos[0] >= c.RightEdge[0] ||
				pos[1] < c.LeftEdge[1] || pos[1] >= c.RightEdge[1] ||
				pos[2] < c.LeftEdge[2] || pos[2] >= c.RightEdge[2]) {
				break
			}
		}
		dest[i] = int32(k)
		counts[k]++
	}
	// Destination k's particles are idx[bounds[k]:bounds[k+1]], in order.
	bounds := make([]int, n+2)
	for k, c := range counts {
		bounds[k+1] = bounds[k] + c
	}
	next := slices.Clone(bounds[:n+1])
	idx := make([]int, ps.N)
	for i, k := range dest {
		idx[next[k]] = i
		next[k]++
	}
	for k, c := range children {
		c.Particles = ps.Select(idx[bounds[k]:bounds[k+1]])
	}
	return ps.Select(idx[bounds[n]:])
}

// RefineLevel refines every grid at the given level of the hierarchy whose
// density exceeds threshold, appending the new children. It returns the
// number of grids created.
func (h *Hierarchy) RefineLevel(level int, threshold float64, minCells int) int {
	created := 0
	for _, g := range h.Level(level) {
		for _, child := range Refine(g, ClusterFlags(g, FlagCells(g, threshold), minCells)) {
			h.Add(child, g.ID)
			created++
		}
	}
	return created
}

// BuildHierarchy creates a root grid plus `levels` levels of pre-refined
// subgrids — the "initial grids (root grid and some initial pre-refined
// subgrids)" a new ENZO simulation reads.
func BuildHierarchy(dims [3]int, nParticles, levels int, threshold float64, seed int64) *Hierarchy {
	return buildHierarchy(dims, nParticles, levels, threshold, seed, false)
}

// BuildHierarchyStructure builds the same hierarchy as BuildHierarchy —
// identical grid tree, dimensions and particle placement — but fills only
// the density field (refinement depends on nothing else), cutting memory
// and time by ~8x. Use it when only the structure or the byte accounting
// is needed (e.g. Table 1 for AMR256).
func BuildHierarchyStructure(dims [3]int, nParticles, levels int, threshold float64, seed int64) *Hierarchy {
	return buildHierarchy(dims, nParticles, levels, threshold, seed, true)
}

func buildHierarchy(dims [3]int, nParticles, levels int, threshold float64, seed int64, densityOnly bool) *Hierarchy {
	clumps := DefaultClumps(seed, 8)
	h := &Hierarchy{}
	h.Add(newTopGrid(dims, nParticles, clumps, seed, densityOnly), -1)
	for l := 0; l < levels; l++ {
		if h.RefineLevel(l, threshold*math.Pow(1.8, float64(l)), 8) == 0 {
			break
		}
	}
	return h
}

// AssignPolicy selects a load-balancing strategy.
type AssignPolicy int

// Load-balancing policies. RoundRobin matches the paper's restart read
// ("every processor reads the subgrids in a round-robin manner");
// WorkBalanced is the dynamic load-balance optimization of Lan et al.
const (
	RoundRobin AssignPolicy = iota
	WorkBalanced
)

// Assign maps each grid (by position in the slice) to a processor.
func Assign(grids []*Grid, nprocs int, policy AssignPolicy) []int {
	owners := make([]int, len(grids))
	switch policy {
	case RoundRobin:
		for i := range grids {
			owners[i] = i % nprocs
		}
	case WorkBalanced:
		order := make([]int, len(grids))
		for i := range order {
			order[i] = i
		}
		// sort by work (cells) descending, stable on index
		for i := 1; i < len(order); i++ {
			for j := i; j > 0; j-- {
				a, b := order[j], order[j-1]
				if grids[a].Cells() > grids[b].Cells() ||
					(grids[a].Cells() == grids[b].Cells() && a < b) {
					order[j], order[j-1] = order[j-1], order[j]
				} else {
					break
				}
			}
		}
		load := make([]int64, nprocs)
		for _, gi := range order {
			best := 0
			for p := 1; p < nprocs; p++ {
				if load[p] < load[best] {
					best = p
				}
			}
			owners[gi] = best
			load[best] += grids[gi].Cells()
		}
	default:
		panic("amr: unknown assign policy")
	}
	return owners
}
