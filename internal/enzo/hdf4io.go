package enzo

import (
	"fmt"

	"repro/internal/amr"
	"repro/internal/core"
	"repro/internal/hdf4"
	"repro/internal/obs"
)

// The original ENZO I/O design (Section 2.2 / 3.1 of the paper):
// sequential HDF4 containers. Processor 0 performs all top-grid file
// access and redistributes over the network; subgrid dumps go to
// individual per-grid files written by their owners in parallel without
// communication; restart reads assign whole subgrids round-robin. There is
// no partitioned access for the walk (layout.go) to drive, so hdf4IO
// implements ioPath itself — and stays the uncompressed, synchronous,
// plain-file baseline: it never touches the transport.

type hdf4IO struct{ *Sim }

func icGridFile(id int) string { return fmt.Sprintf("ic_g%04d.hdf", id) }

func dumpTopFile(d int) string { return fmt.Sprintf("dump%02d_top.hdf", d) }

func dumpGridFile(d, id int) string { return fmt.Sprintf("dump%02d_g%04d.hdf", d, id) }

// writeGridSD writes all of a grid's arrays, in the fixed access order,
// into an HDF4 container.
func writeGridSD(sd *hdf4.SDFile, g *amr.Grid) {
	for f, name := range amr.FieldNames {
		if err := sd.WriteSDS(name, []int{g.Dims[0], g.Dims[1], g.Dims[2]},
			amr.FieldElemSize, g.Fields[f]); err != nil {
			panic(err)
		}
	}
	if g.Particles.N == 0 {
		return
	}
	for k, pa := range amr.ParticleArrays {
		if err := sd.WriteSDS(pa.Name, []int{g.Particles.N}, pa.ElemSize,
			g.Particles.Arrays[k]); err != nil {
			panic(err)
		}
	}
}

// readGridSD reads a whole grid back from an HDF4 container.
func readGridSD(sd *hdf4.SDFile, g core.GridMeta) *amr.Grid {
	grid := newGrid(g)
	for f, name := range amr.FieldNames {
		_, data, err := sd.ReadSDS(name) // lent: the grid adopts the file's bytes
		if err != nil {
			panic(err)
		}
		grid.Fields[f] = data
	}
	if g.NParticles == 0 {
		return grid
	}
	for k, pa := range amr.ParticleArrays {
		_, data, err := sd.ReadSDS(pa.Name)
		if err != nil {
			panic(err)
		}
		grid.Particles.Arrays[k] = data
	}
	return grid
}

func (s hdf4IO) writeIC(h *amr.Hierarchy) {
	if s.r.Rank() != 0 {
		return
	}
	c := s.client()
	for _, g := range h.Grids {
		sd, err := hdf4.Create(c, s.fs, icGridFile(g.ID))
		if err != nil {
			panic(err)
		}
		writeGridSD(sd, g)
		sd.Close()
	}
}

// readPartitioned is the original read path for one grid:
// processor 0 reads each array from the container and redistributes it —
// (Block,Block,Block) sub-blocks for the baryon fields, position-owned
// rows for the particles. Collective: all ranks must call it.
func (s hdf4IO) readPartitioned(fname string, g core.GridMeta) *partition {
	defer obs.Begin(s.r.Proc(), obs.LayerApp, "grid_read").Attr("grid", fmt.Sprint(g.ID)).End()
	p := &partition{gridID: g.ID, sub: core.FieldSubarray(g, s.pz, s.py, s.px, s.r.Rank())}
	p.fields = make([][]byte, len(amr.FieldNames))

	var sd *hdf4.SDFile
	if s.r.Rank() == 0 {
		var err error
		sd, err = hdf4.Open(s.client(), s.fs, fname)
		if err != nil {
			panic(err)
		}
	}
	for f, name := range amr.FieldNames {
		var parts [][]byte
		if s.r.Rank() == 0 {
			// Lent, not staged: the root only gathers the blocks out of it.
			_, full, err := sd.ReadSDS(name)
			if err != nil {
				panic(err)
			}
			parts = make([][]byte, s.r.Size())
			for rank := 0; rank < s.r.Size(); rank++ {
				sub := core.FieldSubarray(g, s.pz, s.py, s.px, rank)
				parts[rank] = sub.GatherSub(full)
			}
			s.r.CopyCost(int64(len(full)))
		}
		p.fields[f] = s.r.Scatterv(0, parts)
	}

	if g.NParticles == 0 {
		p.particles = amr.NewParticleSet(0)
	} else {
		// Processor 0 reads every particle array, determines each
		// particle's destination from its position, and scatters the
		// arrays one by one (the fixed access order).
		var owners []int32
		var counts []int
		var cols [][]byte
		if s.r.Rank() == 0 {
			cols = make([][]byte, len(amr.ParticleArrays))
			for k, pa := range amr.ParticleArrays {
				_, data, err := sd.ReadSDS(pa.Name)
				if err != nil {
					panic(err)
				}
				cols[k] = data
			}
			owners, counts = s.ownersByPosition(&amr.ParticleSet{N: int(g.NParticles), Arrays: cols}, g)
			s.r.CopyCost(g.NParticles * amr.BytesPerParticle())
		}
		recvCols := make([][]byte, len(amr.ParticleArrays))
		for k, pa := range amr.ParticleArrays {
			var parts [][]byte
			if s.r.Rank() == 0 {
				parts = carve(counts, pa.ElemSize)
				scatterColumn(parts, cols[k], pa.ElemSize, owners)
			}
			recvCols[k] = s.r.Scatterv(0, parts)
		}
		n := len(recvCols[0]) / amr.ParticleArrays[0].ElemSize
		p.particles = amr.ParticleSet{N: n, Arrays: recvCols}
	}
	if s.r.Rank() == 0 {
		sd.Close()
	}
	return p
}

func (s hdf4IO) readInitial() {
	s.top = s.readPartitioned(icGridFile(0), s.meta.Top())
	for _, g := range s.meta.Subgrids() {
		s.partials = append(s.partials, s.readPartitioned(icGridFile(g.ID), g))
	}
}

func (s hdf4IO) writeDump(d int) {
	// Top grid: collected by processor 0, combined, and written to a
	// single file (Section 2.2).
	g := s.meta.Top()
	topSp := obs.Begin(s.r.Proc(), obs.LayerApp, "grid_write").Attr("grid", "0")
	var sd *hdf4.SDFile
	if s.r.Rank() == 0 {
		var err error
		sd, err = hdf4.Create(s.client(), s.fs, dumpTopFile(d))
		if err != nil {
			panic(err)
		}
	}
	for f, name := range amr.FieldNames {
		blocks := s.r.Gatherv(0, s.top.fields[f])
		if s.r.Rank() == 0 {
			// Processor 0's staging array, one per field: WriteSDS hands it
			// to pfs, which keeps it (DESIGN.md §13) — a staging array reused
			// for the next field would rewrite this one's file bytes.
			full := make([]byte, g.Cells()*amr.FieldElemSize)
			for rank, blk := range blocks {
				core.FieldSubarray(g, s.pz, s.py, s.px, rank).ScatterSub(full, blk)
			}
			s.r.CopyCost(int64(len(full)))
			if err := sd.WriteSDS(name, []int{g.Dims[0], g.Dims[1], g.Dims[2]},
				amr.FieldElemSize, full); err != nil {
				panic(err)
			}
		}
	}
	rows := packRows(&s.top.particles)
	s.r.CopyCost(int64(len(rows)))
	gathered := s.r.Gatherv(0, rows)
	if s.r.Rank() == 0 {
		if g.NParticles > 0 {
			sorted := s.sortRowsByIDLocal(gathered...)
			_, cols := flatColumnsFromRows(sorted)
			s.r.CopyCost(int64(len(sorted)))
			for k, pa := range amr.ParticleArrays {
				if err := sd.WriteSDS(pa.Name, []int{int(g.NParticles)}, pa.ElemSize, cols[k]); err != nil {
					panic(err)
				}
			}
		}
		sd.Close()
	}
	topSp.End()

	// Subgrids: every processor writes its own grids into individual
	// files, in parallel, without communication.
	for _, gm := range s.meta.Subgrids() {
		grid, mine := s.owned[gm.ID]
		if !mine {
			continue
		}
		sp := obs.Begin(s.r.Proc(), obs.LayerApp, "grid_write").Attr("grid", fmt.Sprint(gm.ID))
		sub, err := hdf4.Create(s.client(), s.fs, dumpGridFile(d, gm.ID))
		if err != nil {
			panic(err)
		}
		writeGridSD(sub, grid)
		sub.Close()
		sp.End()
	}
}

func (s hdf4IO) readRestart(d int) {
	// "The restart read is pretty much like the new simulation read,
	// except that every processor reads the subgrids in a round-robin
	// manner."
	s.top = s.readPartitioned(dumpTopFile(d), s.meta.Top())
	owners := s.restartOwners()
	for _, g := range s.meta.Subgrids() {
		if owners[g.ID] != s.r.Rank() {
			continue
		}
		sp := obs.Begin(s.r.Proc(), obs.LayerApp, "grid_read").Attr("grid", fmt.Sprint(g.ID))
		sd, err := hdf4.Open(s.client(), s.fs, dumpGridFile(d, g.ID))
		if err != nil {
			panic(err)
		}
		s.owned[g.ID] = readGridSD(sd, g)
		sd.Close()
		sp.End()
	}
}
