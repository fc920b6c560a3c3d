package enzo

import (
	"fmt"

	"repro/internal/amr"
	"repro/internal/core"
	"repro/internal/hdf5"
	"repro/internal/mpi"
	"repro/internal/pfs"
)

// The parallel HDF5 port (Section 3.4): the same access strategy as the
// direct MPI-IO version — collective access for the regular baryon
// fields, independent block-wise access for the irregular particle data,
// one shared file for all grids — but expressed through HDF5 datasets and
// hyperslab selections, which adds the library overheads of Section 4.5
// (collective dataset create/close, interleaved metadata, recursive
// hyperslab packing, rank-0-only attributes).

func icH5File() string { return "ic.h5" }

func dumpH5File(d int) string { return fmt.Sprintf("dump%02d.h5", d) }

func dsName(gridID int, array string) string { return fmt.Sprintf("g%04d/%s", gridID, array) }

// fullSel selects an entire dataset.
func fullSel(dims []int, elemSize int) mpi.Subarray {
	return mpi.Subarray{
		Sizes: dims, Subsizes: append([]int(nil), dims...),
		Starts: make([]int, len(dims)), ElemSize: elemSize,
	}
}

// emptySel selects nothing (for non-contributing ranks of a collective).
func emptySel(dims []int, elemSize int) mpi.Subarray {
	return mpi.Subarray{
		Sizes: dims, Subsizes: make([]int, len(dims)),
		Starts: make([]int, len(dims)), ElemSize: elemSize,
	}
}

// rowRangeSel builds a 1-D hyperslab over rows [lo, hi) of an n-row
// particle array.
func rowRangeSel(n int64, elemSize int, lo, hi int64) mpi.Subarray {
	return mpi.Subarray{
		Sizes:    []int{int(n)},
		Subsizes: []int{int(hi - lo)},
		Starts:   []int{int(lo)},
		ElemSize: elemSize,
	}
}

func fieldDims(g core.GridMeta) []int { return []int{g.Dims[0], g.Dims[1], g.Dims[2]} }

// h5Layout stores every array as a dataset of one shared HDF5 file. With a
// codec, field datasets hold one independently packed segment per writing
// rank.
type h5Layout struct{ *Sim }

// h5File is an open container. hf is nil when a tolerant read-back could
// not open it: every read then leaves its zero-filled buffer in place.
type h5File struct {
	*Sim
	hf *hdf5.File
	// indep: field partitions are read independently (node-local initial
	// conditions: each rank reads what it staged at setup).
	indep bool
}

// h5cfg is the HDF5 library configuration for file fname: compressed runs
// wire the rank's compressor and route per-dataset codec accounting into
// the file-system stack under the file's name.
func (s *Sim) h5cfg(fname string) hdf5.Config {
	c := hdf5.DefaultConfig()
	if s.compressed() {
		c.Z = s.z
		c.OnCodec = func(write bool, logical, physical int64) {
			s.recordCodecBytes(fname, write, logical, physical)
		}
	}
	return c
}

func (l h5Layout) create(name string) *h5File {
	hf, err := hdf5.Create(l.r, l.fs, name, l.h5cfg(name), l.hints)
	if err != nil {
		panic(err)
	}
	return &h5File{Sim: l.Sim, hf: hf}
}

// createDataset creates a dataset collectively — every dataset creation
// synchronizes all processors even when a single owner writes the data.
// Field datasets of a compressed run are segment containers.
func (h *h5File) createDataset(gridID int, name string, dims []int, elemSize int, field bool) *hdf5.Dataset {
	var ds *hdf5.Dataset
	var err error
	if field && h.compressed() {
		ds, err = h.hf.CreateDatasetZ(dsName(gridID, name), dims, elemSize)
	} else {
		ds, err = h.hf.CreateDataset(dsName(gridID, name), dims, elemSize)
	}
	if err != nil {
		panic(err)
	}
	return ds
}

// writeIC: on a shared file system every dataset is created collectively
// and written by rank 0; node-local disks and compressed runs (per-rank
// segments) are provisioned partition by partition (localic.go).
func (l h5Layout) writeIC(h *amr.Hierarchy) {
	file := l.create(icH5File())
	if l.localMode || l.compressed() {
		l.provisionIC(h,
			func(gm core.GridMeta, fi int, sub mpi.Subarray, part []byte) {
				ds := file.createDataset(gm.ID, amr.FieldNames[fi], fieldDims(gm), amr.FieldElemSize, true)
				if l.compressed() {
					ds.WriteCompressed(part)
				} else {
					ds.WriteHyperslabIndependent(sub, part)
				}
				ds.Close()
			},
			func(gm core.GridMeta, k int, lo, hi int64, col []byte) {
				pa := amr.ParticleArrays[k]
				ds := file.createDataset(gm.ID, pa.Name, []int{int(gm.NParticles)}, pa.ElemSize, false)
				ds.WriteHyperslabIndependent(rowRangeSel(gm.NParticles, pa.ElemSize, lo, hi), col)
				ds.Close()
			})
		file.hf.Close()
		return
	}
	root := l.r.Rank() == 0
	put := func(gridID int, name string, dims []int, elemSize int, data []byte) {
		ds := file.createDataset(gridID, name, dims, elemSize, false)
		if root {
			ds.WriteHyperslab(fullSel(dims, elemSize), data)
		} else {
			ds.WriteHyperslab(emptySel(dims, elemSize), nil)
		}
		ds.Close()
	}
	// Only rank 0 holds the hierarchy; the others pass nil data.
	noFields := make([][]byte, len(amr.FieldNames))
	noCols := make([][]byte, len(amr.ParticleArrays))
	for _, gm := range l.meta.Grids {
		fields, cols := noFields, noCols
		if root {
			fields, cols = h.Grids[gm.ID].Fields, h.Grids[gm.ID].Particles.Arrays
		}
		for fi, name := range amr.FieldNames {
			put(gm.ID, name, fieldDims(gm), amr.FieldElemSize, fields[fi])
		}
		if gm.NParticles > 0 {
			for k, pa := range amr.ParticleArrays {
				put(gm.ID, pa.Name, []int{int(gm.NParticles)}, pa.ElemSize, cols[k])
			}
		}
	}
	file.hf.Close()
}

func (l h5Layout) openIC() gridReader {
	hf, err := hdf5.OpenRead(l.r, l.fs, icH5File(), l.h5cfg(icH5File()), l.hints)
	if err != nil {
		panic(err)
	}
	return &h5File{Sim: l.Sim, hf: hf, indep: l.localMode}
}

func (l h5Layout) openDump(d int) gridReader {
	hf, err := hdf5.OpenRead(l.r, l.fs, dumpH5File(d), l.h5cfg(dumpH5File(d)), l.hints)
	if err != nil {
		if !l.tolerant {
			panic(err)
		}
		// The metadata index was unreadable — on every rank, since OpenRead
		// broadcasts its failure. The generation is damaged wholesale; the
		// walk degrades to zero-filled buffers but still runs its collective
		// particle redistribution, so the ranks stay in step.
		l.damaged = true
		hf = nil
	}
	return &h5File{Sim: l.Sim, hf: hf}
}

// createDump switches the fresh container into write-behind metadata mode
// when the dump is deferred (the library's metadata cache: header flushes
// defer like data writes). A compressed run packs every field the walk
// will squeeze in one batch first.
func (l h5Layout) createDump(d int) dumpWriter {
	if l.compressed() {
		l.z.PackAll(l.dumpArrays(false))
	}
	file := l.create(dumpH5File(d))
	file.hf.SetWriteBehindMeta(l.metaSink())
	return file
}

// open opens a dataset for reading (nil when the container is unreadable).
func (h *h5File) open(gridID int, name string) *hdf5.Dataset {
	if h.hf == nil {
		return nil
	}
	ds, err := h.hf.OpenDataset(dsName(gridID, name))
	if err != nil {
		panic(err)
	}
	return ds
}

// readInto issues an independent read of sel, a selection contiguous in the
// file, that lends: buf is the stored bytes, or a copy of the pieces they
// span, and read-only either way. The selection starts where the first piece
// does; an empty one has no pieces. An unreadable container yields zeros.
func (h *h5File) readInto(ds *hdf5.Dataset, sel mpi.Subarray) (buf []byte, settle func()) {
	if ds == nil {
		return make([]byte, sel.Bytes()), settled
	}
	pieces, settle := h.lend(xfer{kind: xSlabIndep, ds: ds, sel: sel, n: sel.Bytes()})
	var off int64
	if len(pieces) > 0 {
		off = pieces[0].Off
	}
	return pfs.LentRange(pieces, off, sel.Bytes()), settle
}

// readSegs issues the read of a compressed dataset's segment slot (every
// segment when slot < 0) into *out; a read a tolerant read-back absorbed
// leaves want zero bytes there instead.
func (h *h5File) readSegs(ds *hdf5.Dataset, slot int, out *[]byte, want int64) func() {
	settle := h.read(xfer{kind: xSeg, ds: ds, slot: slot, out: out})
	return func() {
		settle()
		if *out == nil {
			*out = make([]byte, want)
		}
	}
}

func (h *h5File) field(g core.GridMeta, fi int, p *partition) func() {
	ds := h.open(g.ID, amr.FieldNames[fi])
	if ds != nil && ds.Compressed() {
		// One packed segment per writing rank: the initial conditions were
		// provisioned with this rank's partition in its own slot, and a
		// restart uses the dump decomposition.
		return h.readSegs(ds, h.r.Rank(), &p.blocks[fi].Base, p.sub.Bytes())
	}
	if ds == nil {
		p.blocks[fi] = mpi.Packed(make([]byte, p.sub.Bytes()))
		return settled
	}
	kind := xSlab
	if h.indep {
		kind = xSlabIndep
	}
	return h.read(xfer{kind: kind, ds: ds, block: &p.sub, view: &p.blocks[fi]})
}

func (h *h5File) rows(g core.GridMeta, lo, hi int64) amr.ParticleSet {
	cols := make([][]byte, len(amr.ParticleArrays))
	settles := make([]func(), len(amr.ParticleArrays))
	for k, pa := range amr.ParticleArrays {
		cols[k], settles[k] = h.readInto(h.open(g.ID, pa.Name), rowRangeSel(g.NParticles, pa.ElemSize, lo, hi))
	}
	for _, settle := range settles {
		settle()
	}
	return amr.ParticleSet{N: int(hi - lo), Arrays: cols}
}

// subgrid issues every dataset read of the grid together.
func (h *h5File) subgrid(gm core.GridMeta) func() *amr.Grid {
	grid := newGrid(gm)
	settles := make([]func(), 0, len(amr.FieldNames)+len(amr.ParticleArrays))
	for fi, name := range amr.FieldNames {
		var settle func()
		if ds := h.open(gm.ID, name); ds != nil && ds.Compressed() {
			// The dump owner wrote the whole array as its one segment;
			// concatenating the non-empty slots recovers it without
			// knowing who the owner was.
			settle = h.readSegs(ds, -1, &grid.Fields[fi], gm.Cells()*amr.FieldElemSize)
		} else {
			grid.Fields[fi], settle = h.readInto(ds, fullSel(fieldDims(gm), amr.FieldElemSize))
		}
		settles = append(settles, settle)
	}
	if gm.NParticles > 0 {
		for k, pa := range amr.ParticleArrays {
			var settle func()
			grid.Particles.Arrays[k], settle = h.readInto(h.open(gm.ID, pa.Name), fullSel([]int{int(gm.NParticles)}, pa.ElemSize))
			settles = append(settles, settle)
		}
	}
	return func() *amr.Grid {
		for _, settle := range settles {
			settle()
		}
		return grid
	}
}

func (h *h5File) close() {
	if h.hf != nil {
		h.hf.Close()
	}
}

func (h *h5File) putTopField(fi int) {
	g := h.meta.Top()
	ds := h.createDataset(g.ID, amr.FieldNames[fi], fieldDims(g), amr.FieldElemSize, true)
	if ds.Compressed() {
		// Each rank packs and appends its own partition segment.
		h.write(xfer{kind: xSeg, ds: ds, buf: h.top.field(fi)})
	} else {
		h.write(xfer{kind: xSlab, ds: ds, sel: h.top.sub, buf: h.top.field(fi)})
	}
	ds.Close()
}

func (h *h5File) putTopRows(g core.GridMeta, sorted []byte) {
	lo, n, _, cols := h.blockColumns(sorted)
	for k, pa := range amr.ParticleArrays {
		ds := h.createDataset(g.ID, pa.Name, []int{int(g.NParticles)}, pa.ElemSize, false)
		h.write(xfer{kind: xSlabIndep, ds: ds, sel: rowRangeSel(g.NParticles, pa.ElemSize, lo, lo+n), buf: cols[k]})
		ds.Close()
	}
}

// sealTop: only processor 0 may create/write attributes (overhead 4 of
// Section 4.5).
func (h *h5File) sealTop() {
	h.hf.WriteAttribute("top_grid_dims", []byte(fmt.Sprintf("%v", h.meta.Top().Dims)))
}

func (h *h5File) collective() bool { return true }

func (h *h5File) putSubgrid(gm core.GridMeta, grid *amr.Grid) {
	for fi, name := range amr.FieldNames {
		ds := h.createDataset(gm.ID, name, fieldDims(gm), amr.FieldElemSize, true)
		var raw []byte
		if grid != nil {
			raw = grid.Fields[fi]
		}
		if ds.Compressed() {
			// Only the owner contributes bytes; everyone still pays the
			// length exchange.
			h.write(xfer{kind: xSeg, ds: ds, buf: raw})
		} else if grid != nil {
			h.write(xfer{kind: xSlabIndep, ds: ds, sel: fullSel(fieldDims(gm), amr.FieldElemSize), buf: raw})
		}
		ds.Close()
	}
	if gm.NParticles > 0 {
		pdims := []int{int(gm.NParticles)}
		for k, pa := range amr.ParticleArrays {
			ds := h.createDataset(gm.ID, pa.Name, pdims, pa.ElemSize, false)
			if grid != nil {
				h.write(xfer{kind: xSlabIndep, ds: ds, sel: fullSel(pdims, pa.ElemSize), buf: grid.Particles.Arrays[k]})
			}
			ds.Close()
		}
	}
	h.hf.WriteAttribute(fmt.Sprintf("g%04d_level", gm.ID), []byte{byte(gm.Level)})
}

func (h *h5File) finish() {
	h.closeAfterDrain(func() {
		// The drain already settled every deferred completion; the close's
		// own superblock write goes back to synchronous.
		h.hf.SetWriteBehindMeta(nil)
		h.hf.Close()
	})
}
