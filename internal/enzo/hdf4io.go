package enzo

import (
	"fmt"

	"repro/internal/amr"
	"repro/internal/core"
	"repro/internal/hdf4"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// The original ENZO I/O design (Section 2.2 / 3.1 of the paper):
// sequential HDF4 containers. Processor 0 performs all top-grid file
// access and redistributes over the network; subgrid dumps go to
// individual per-grid files written by their owners in parallel without
// communication; restart reads assign whole subgrids round-robin. There is
// no partitioned access for the walk (layout.go) to drive, so hdf4IO
// implements ioPath itself. RunSpec.Validate refuses a codec, castore and
// AsyncIO with it, so it is the uncompressed, synchronous, plain-file
// baseline: it never touches the transport.
//
// On the host, processor 0 redistributes an initial or restart array as
// views (mpi.Scatterv): each rank's (Block,Block,Block) subarray of
// the bytes the file lent it, packed nowhere at the root. A rank packs its
// own top-grid block; an initial subgrid's blocks stay views until
// consolidate copies them, run by run, into the owner's grid — one copy of
// a subgrid byte on its way to its owner. Virtual time still charges the
// root's copy of every array (CopyCost), as the modelled machine makes it.

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

// open opens a container for reading. A tolerant read-back absorbs a
// failure and returns nil, which readSDS reads as zeros.
func (s hdf4IO) open(name string) *hdf4.SDFile {
	sd, err := hdf4.Open(s.client(), s.fs, name)
	if s.tolerate(err) {
		return nil
	}
	return sd
}

// readSDS reads the named array, n bytes, lent: the caller adopts the
// file's bytes, in tolerant mode too (DESIGN.md §13 names this read-back
// beside castore's). A tolerant read-back absorbs a container it could not
// open, a missing array and one of another length (a stale descriptor) and
// hands back n fresh zero bytes instead, never a lent array, so the root
// still feeds its scatter and the manifest check rejects the generation.
func (s hdf4IO) readSDS(sd *hdf4.SDFile, name string, n int64) []byte {
	if sd != nil {
		_, data, err := sd.ReadSDS(name)
		if err == nil && int64(len(data)) != n {
			err = fmt.Errorf("hdf4: SDS %q holds %d bytes, want %d", name, len(data), n)
		}
		if !s.tolerate(err) {
			return data
		}
	}
	return make([]byte, n)
}

// closeSD closes sd unless a tolerated failure left it nil.
func closeSD(sd *hdf4.SDFile) {
	if sd != nil {
		sd.Close()
	}
}

// readGrid reads a whole grid back from an HDF4 container.
func (s hdf4IO) readGrid(sd *hdf4.SDFile, g core.GridMeta) *amr.Grid {
	grid := newGrid(g)
	for f, name := range amr.FieldNames {
		grid.Fields[f] = s.readSDS(sd, name, g.Cells()*amr.FieldElemSize)
	}
	if g.NParticles == 0 {
		return grid
	}
	for k, pa := range amr.ParticleArrays {
		grid.Particles.Arrays[k] = s.readSDS(sd, pa.Name, g.NParticles*int64(pa.ElemSize))
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
// rows for the particles. Collective: all ranks must call it. A field
// block travels as a view of the array the root was lent, so the root
// packs nothing: p.views holds this rank's blocks, which readTop packs
// and consolidate copies straight into the owner's grid.
func (s hdf4IO) readPartitioned(fname string, g core.GridMeta) *partition {
	defer obs.Begin(s.r.Proc(), obs.LayerApp, "grid_read").Attr("grid", fmt.Sprint(g.ID)).End()
	p := &partition{gridID: g.ID, sub: core.FieldSubarray(g, s.pz, s.py, s.px, s.r.Rank())}
	p.blocks = make([]mpi.View, len(amr.FieldNames))

	var sd *hdf4.SDFile
	var parts []mpi.View // the root's, one per rank, re-based per array
	if s.r.Rank() == 0 {
		sd = s.open(fname)
		subs := s.rankSubarrays(g)
		parts = make([]mpi.View, len(subs))
		for rank := range subs {
			parts[rank].Sub = &subs[rank]
		}
	}
	for f, name := range amr.FieldNames {
		if s.r.Rank() == 0 {
			// Lent, not staged: every rank's view is of the file's bytes.
			full := s.readSDS(sd, name, g.Cells()*amr.FieldElemSize)
			for rank := range parts {
				parts[rank].Base = full
			}
			s.r.CopyCost(int64(len(full)))
		}
		p.blocks[f] = s.r.Scatterv(0, parts)
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
				cols[k] = s.readSDS(sd, pa.Name, g.NParticles*int64(pa.ElemSize))
			}
			owners, counts = s.ownersByPosition(&amr.ParticleSet{N: int(g.NParticles), Arrays: cols}, g)
			s.r.CopyCost(g.NParticles * amr.BytesPerParticle())
		}
		recvCols := make([][]byte, len(amr.ParticleArrays))
		for k, pa := range amr.ParticleArrays {
			if s.r.Rank() == 0 {
				bufs := carve(counts, pa.ElemSize)
				scatterColumn(bufs, cols[k], pa.ElemSize, owners)
				for rank, b := range bufs {
					parts[rank] = mpi.Packed(b)
				}
			}
			recvCols[k] = s.r.Scatterv(0, parts).Base
		}
		n := len(recvCols[0]) / amr.ParticleArrays[0].ElemSize
		p.particles = amr.ParticleSet{N: n, Arrays: recvCols}
	}
	closeSD(sd)
	return p
}

// readTop reads the top grid and packs the rank's field blocks on the rank
// itself — the one copy the root used to make for it — because the top
// grid is rank state every dump writes from.
func (s hdf4IO) readTop(fname string) *partition {
	return s.readPartitioned(fname, s.meta.Top()).pack()
}

func (s hdf4IO) readInitial() {
	s.top = s.readTop(icGridFile(0))
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
	var subs []mpi.Subarray
	if s.r.Rank() == 0 {
		var err error
		sd, err = hdf4.Create(s.client(), s.fs, dumpTopFile(d))
		if err != nil {
			panic(err)
		}
		subs = s.rankSubarrays(g)
	}
	for f, name := range amr.FieldNames {
		blocks := s.r.Gatherv(0, mpi.Packed(s.top.field(f)))
		if s.r.Rank() == 0 {
			// Processor 0's staging array, one per field: WriteSDS hands it
			// to pfs, which keeps it (DESIGN.md §13) — a staging array reused
			// for the next field would rewrite this one's file bytes.
			full := make([]byte, g.Cells()*amr.FieldElemSize)
			for rank, blk := range blocks {
				blk.UnpackTo(full, subs[rank])
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
	gathered := s.r.Gatherv(0, mpi.Packed(rows))
	if s.r.Rank() == 0 {
		if g.NParticles > 0 {
			sorted := s.sortRowsByIDLocal(bases(gathered)...)
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
	s.top = s.readTop(dumpTopFile(d))
	owners := s.restartOwners()
	for _, g := range s.meta.Subgrids() {
		if owners[g.ID] != s.r.Rank() {
			continue
		}
		sp := obs.Begin(s.r.Proc(), obs.LayerApp, "grid_read").Attr("grid", fmt.Sprint(g.ID))
		sd := s.open(dumpGridFile(d, g.ID))
		s.owned[g.ID] = s.readGrid(sd, g)
		closeSD(sd)
		sp.End()
	}
}
