package enzo

import (
	"fmt"

	"repro/internal/amr"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
)

// The paper's direct MPI-IO port (Section 3.2/3.3): all grids live in a
// single shared file whose layout is computed from the replicated
// hierarchy metadata (grids in ID order, arrays in the fixed access
// order, explicit offsets — no in-file directory). Baryon fields use
// collective two-phase I/O with subarray file views; particle arrays use
// block-wise independent I/O, moved as one list-I/O pass per grid.

func icRawFile() string { return "ic.raw" }

func dumpRawFile(d int) string { return fmt.Sprintf("dump%02d.raw", d) }

// rawLayout is the fixed-offset shared file.
type rawLayout struct {
	*Sim
	// forceCB routes every subgrid array through MPI_File_write_all with
	// collective buffering forced, as under romio_cb_write=enable. The
	// per-array synchronization serializes the owners' writes — the
	// communication overhead the paper observes on slow networks.
	forceCB bool
}

// rawFile is an open shared file of either raw layout (fixed offsets here,
// z-directory in rawzio.go). Both store the irregular particle arrays raw
// at fixed in-slot offsets — particles are high-entropy and their
// block-range accesses need fixed addressing — so everything about them is
// shared through arrayOff.
type rawFile struct {
	*Sim
	f       *mpiio.File
	name    string
	forceCB bool
	// indep: field partitions are read independently (node-local initial
	// conditions: each rank reads what it staged at setup).
	indep    bool
	arrayOff func(gridID int, name string) (off, length int64)
}

func (l rawLayout) open(name string, mode mpiio.Mode) *rawFile {
	f, err := mpiio.Open(l.r, l.fs, name, mode, l.hints)
	if err != nil {
		panic(err)
	}
	return &rawFile{Sim: l.Sim, f: f, name: name, forceCB: l.forceCB, arrayOff: l.offsets.ArrayOffset}
}

func (l rawLayout) openIC() gridReader {
	rf := l.open(icRawFile(), mpiio.ModeRead)
	rf.indep = l.localMode
	return rf
}

func (l rawLayout) createDump(d int) dumpWriter { return l.open(dumpRawFile(d), mpiio.ModeCreate) }
func (l rawLayout) openDump(d int) gridReader   { return l.open(dumpRawFile(d), mpiio.ModeRead) }

// writeIC: on a shared file system rank 0 writes the whole file; node-local
// disks are provisioned partition by partition (localic.go).
func (l rawLayout) writeIC(h *amr.Hierarchy) {
	if l.localMode {
		rf := l.open(icRawFile(), mpiio.ModeCreate)
		l.provisionIC(h,
			func(gm core.GridMeta, fi int, sub mpi.Subarray, part []byte) {
				rf.f.WriteRuns(l.fieldRuns(gm, amr.FieldNames[fi], sub), part)
			},
			func(gm core.GridMeta, k int, lo, hi int64, col []byte) {
				base, _ := l.offsets.ArrayOffset(gm.ID, amr.ParticleArrays[k].Name)
				rf.f.WriteAt(col, base+lo*int64(amr.ParticleArrays[k].ElemSize))
			})
		rf.f.Close()
		return
	}
	if l.r.Rank() != 0 {
		return
	}
	f, err := mpiio.OpenIndependent(l.r, l.fs, icRawFile(), mpiio.ModeCreate, l.hints)
	if err != nil {
		panic(err)
	}
	for _, g := range h.Grids {
		for fi, name := range amr.FieldNames {
			off, _ := l.offsets.ArrayOffset(g.ID, name)
			f.WriteAt(g.Fields[fi], off)
		}
		for k, pa := range amr.ParticleArrays {
			if g.Particles.N == 0 {
				break
			}
			off, _ := l.offsets.ArrayOffset(g.ID, pa.Name)
			f.WriteAt(g.Particles.Arrays[k], off)
		}
	}
	f.Close()
}

// fieldRuns returns rank r's file view for one baryon field of grid g in
// the shared file: the flattened (Block,Block,Block) subarray shifted to
// the array's offset. The list lives in the rank's one run buffer and is
// good until the next call — MPI-IO consumes a view when the access is
// issued, in either issue mode.
func (s *Sim) fieldRuns(g core.GridMeta, name string, sub mpi.Subarray) []mpi.Run {
	base, _ := s.offsets.ArrayOffset(g.ID, name)
	s.runBuf = sub.AppendRuns(s.runBuf[:0], base)
	return s.runBuf
}

// colList builds the explicit (offset,length) vector covering rows [lo,hi)
// of every particle array of one grid — the scattered block-wise pattern
// that list-I/O moves in one file-domain pass instead of one independent
// request (or sieved extent) per array. Entries come out in array order,
// matching the column layout of flatColumnsFromRows/splitCols.
func (rf *rawFile) colList(gridID int, lo, hi int64) (offs, lens []int64, total int64) {
	offs = make([]int64, len(amr.ParticleArrays))
	lens = make([]int64, len(amr.ParticleArrays))
	for k, pa := range amr.ParticleArrays {
		base, _ := rf.arrayOff(gridID, pa.Name)
		offs[k] = base + lo*int64(pa.ElemSize)
		lens[k] = (hi - lo) * int64(pa.ElemSize)
		total += lens[k]
	}
	return offs, lens, total
}

// splitCols slices one flat list-I/O buffer into per-array columns
// (entry order = array order, as colList builds it).
func splitCols(flat []byte, lens []int64) [][]byte {
	cols := make([][]byte, len(lens))
	var p int64
	for k, n := range lens {
		cols[k] = flat[p : p+n]
		p += n
	}
	return cols
}

func (rf *rawFile) field(g core.GridMeta, fi int, p *partition) func() {
	kind := xAll
	if rf.indep {
		kind = xRuns
	}
	base, _ := rf.offsets.ArrayOffset(g.ID, amr.FieldNames[fi])
	return rf.read(xfer{kind: kind, f: rf.f, off: base, block: &p.sub, view: &p.blocks[fi]})
}

func (rf *rawFile) rows(g core.GridMeta, lo, hi int64) amr.ParticleSet {
	offs, lens, total := rf.colList(g.ID, lo, hi)
	flat := make([]byte, total)
	rf.read(xfer{kind: xList, f: rf.f, offs: offs, lens: lens, buf: flat})()
	return amr.ParticleSet{N: int(hi - lo), Arrays: splitCols(flat, lens)}
}

// gridExtent is the contiguous shared-file region holding every array of
// one grid — the layout places a grid's arrays back to back, so a restart
// reader can fetch the whole grid with one request instead of one per
// array.
func (s *Sim) gridExtent(gm core.GridMeta) (lo, hi int64) {
	for i, a := range gm.Arrays() {
		off, length := s.offsets.ArrayOffset(gm.ID, a.Name)
		if i == 0 || off < lo {
			lo = off
		}
		if i == 0 || off+length > hi {
			hi = off + length
		}
	}
	return lo, hi
}

// subgrid reads the grid's whole extent with one lend request. Its arrays
// were written one request each, so each is the piece it lies in; one that
// an aggregator's chunks split is copied.
func (rf *rawFile) subgrid(gm core.GridMeta) func() *amr.Grid {
	lo, hi := rf.gridExtent(gm)
	pieces, settle := rf.lend(xfer{kind: xAt, f: rf.f, n: hi - lo, off: lo})
	at := func(off, n int64) []byte { return pfs.LentRange(pieces, off, n) }
	grid := newGrid(gm)
	for fi, name := range amr.FieldNames {
		grid.Fields[fi] = at(rf.offsets.ArrayOffset(gm.ID, name))
	}
	rf.sliceParticles(gm, grid, at)
	return func() *amr.Grid {
		settle()
		return grid
	}
}

// sliceParticles points a grid's particle arrays into its coalesced extent
// read, at(off, length) cutting out the array stored at file offset off.
func (rf *rawFile) sliceParticles(gm core.GridMeta, grid *amr.Grid, at func(off, length int64) []byte) {
	if gm.NParticles == 0 {
		return
	}
	for k, pa := range amr.ParticleArrays {
		grid.Particles.Arrays[k] = at(rf.arrayOff(gm.ID, pa.Name))
	}
}

func (rf *rawFile) close() { rf.f.Close() }

func (rf *rawFile) putTopField(fi int) {
	runs := rf.fieldRuns(rf.meta.Top(), amr.FieldNames[fi], rf.top.sub)
	rf.write(xfer{kind: xAll, f: rf.f, runs: runs, buf: rf.top.field(fi)})
}

// putTopRows: "the block-wise pattern for 1-D arrays always results in
// contiguous access in each processor".
func (rf *rawFile) putTopRows(g core.GridMeta, sorted []byte) {
	lo, n, flat, _ := rf.blockColumns(sorted)
	offs, lens, _ := rf.colList(g.ID, lo, lo+n)
	rf.write(xfer{kind: xList, f: rf.f, offs: offs, lens: lens, buf: flat})
}

func (rf *rawFile) sealTop() {}

func (rf *rawFile) collective() bool { return rf.forceCB }

// putOwned writes one single-owner array at off: independently by its
// owner (MPI_File_write_at at a location computed from the replicated
// metadata), or — under forceCB — through a collective every rank joins,
// non-owners contributing nothing. Wrapping single-owner arrays in
// write_all serializes the dump on every platform, since even ROMIO's
// independent fallback synchronizes the participants at its offset
// exchange; that is the point of the variant.
func (rf *rawFile) putOwned(data []byte, off int64, owner bool) {
	if rf.forceCB {
		var runs []mpi.Run
		if owner {
			runs = []mpi.Run{{Off: off, Len: int64(len(data))}}
		}
		rf.write(xfer{kind: xAll, f: rf.f, runs: runs, buf: data})
	} else if owner {
		rf.write(xfer{kind: xAt, f: rf.f, buf: data, off: off})
	}
}

func (rf *rawFile) putSubgrid(gm core.GridMeta, grid *amr.Grid) {
	for fi, name := range amr.FieldNames {
		var data []byte
		var off int64
		if grid != nil {
			data = grid.Fields[fi]
			off, _ = rf.offsets.ArrayOffset(gm.ID, name)
		}
		rf.putOwned(data, off, grid != nil)
	}
	// The forced-collective variant walks the grid's full array list, which
	// names the particle arrays even when they are empty; the owner-only
	// path skips them.
	if gm.NParticles > 0 || rf.forceCB {
		rf.putSubgridParticles(gm, grid)
	}
}

func (rf *rawFile) putSubgridParticles(gm core.GridMeta, grid *amr.Grid) {
	for k, pa := range amr.ParticleArrays {
		var data []byte
		var off int64
		if grid != nil {
			data = grid.Particles.Arrays[k]
			off, _ = rf.arrayOff(gm.ID, pa.Name)
		}
		rf.putOwned(data, off, grid != nil)
	}
}

func (rf *rawFile) finish() { rf.closeAfterDrain(rf.f.Close) }
