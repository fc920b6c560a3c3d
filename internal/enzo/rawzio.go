package enzo

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/amr"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
)

// Compressed variant of the raw MPI-IO shared-file layout. Fixed offsets
// from the replicated metadata no longer work once field arrays shrink by
// data-dependent amounts, so the file gains a directory — the only piece
// of in-file metadata in the raw path:
//
//	file  := dir segment*
//	dir   := magic "RZ01" (4) | nranks (u32) | ngrids (u32) | nslots (u32)
//	         | nslots x segment length (u64)
//
// Slots follow the same deterministic order as the uncompressed layout —
// grids in ID order, arrays in the fixed access order — except that each
// *regular* (baryon field) array owns nranks slots, one per rank's
// independently packed partition segment, while each *irregular* (particle)
// array keeps a single raw slot: particles are high-entropy and their
// block-range accesses need fixed addressing. Segment data follows the
// directory in slot order. Per-rank segment lengths are exchanged with one
// batched allgather per dump; rank 0 writes the directory.

const zMagic = "RZ01"

// zLayout is the compressed shared-file layout: slot lengths plus the
// offsets derived from them.
type zLayout struct {
	np       int
	lens     []int64
	offs     []int64
	dirSize  int64
	first    []int // grid ID -> the grid's first slot index
	regSlots []int // first slot index of every regular array, global order
	ngrids   int
}

// newZLayout enumerates the slots for a hierarchy; regular-array lengths
// stay zero until exchanged or decoded from a directory. A grid's slots are
// its fields', np each in field order, then one per particle array
// (core.GridMeta.Arrays).
func newZLayout(m *core.HierarchyMeta, np int) *zLayout {
	z := &zLayout{np: np, first: make([]int, len(m.Grids)), ngrids: len(m.Grids)}
	for _, g := range m.Grids {
		z.first[g.ID] = len(z.lens)
		for _, a := range g.Arrays() {
			if a.Pattern == core.PatternRegular {
				z.regSlots = append(z.regSlots, len(z.lens))
				for r := 0; r < np; r++ {
					z.lens = append(z.lens, 0)
				}
			} else {
				z.lens = append(z.lens, a.Bytes())
			}
		}
	}
	z.dirSize = 16 + 8*int64(len(z.lens))
	return z
}

// finalize turns slot lengths into absolute offsets (data follows the dir).
func (z *zLayout) finalize() {
	z.offs = make([]int64, len(z.lens))
	off := z.dirSize
	for i, n := range z.lens {
		z.offs[i] = off
		off += n
	}
}

// fieldSeg returns rank rk's segment of field fi of grid gridID.
func (z *zLayout) fieldSeg(gridID, fi, rk int) (off, length int64) {
	i := z.first[gridID] + fi*z.np + rk
	return z.offs[i], z.lens[i]
}

// arraySeg returns a particle array's raw region.
func (z *zLayout) arraySeg(gridID int, name string) (off, length int64) {
	i := z.first[gridID] + len(amr.FieldNames)*z.np
	for k := 0; amr.ParticleArrays[k].Name != name; k++ {
		i++
	}
	return z.offs[i], z.lens[i]
}

// gridExtent is the contiguous file region covering every slot of one grid:
// slots are enumerated grid by grid, so a grid's segments are adjacent and
// a restart reader can fetch the whole grid with one request.
func (z *zLayout) gridExtent(gm core.GridMeta) (lo, hi int64) {
	first := z.first[gm.ID]
	last := first + len(amr.FieldNames)*z.np + len(amr.ParticleArrays) - 1
	return z.offs[first], z.offs[last] + z.lens[last]
}

func (z *zLayout) encodeDir() []byte {
	dir := make([]byte, z.dirSize)
	copy(dir, zMagic)
	binary.LittleEndian.PutUint32(dir[4:], uint32(z.np))
	binary.LittleEndian.PutUint32(dir[8:], uint32(z.ngrids))
	binary.LittleEndian.PutUint32(dir[12:], uint32(len(z.lens)))
	for i, n := range z.lens {
		binary.LittleEndian.PutUint64(dir[16+8*i:], uint64(n))
	}
	return dir
}

func (z *zLayout) decodeDir(dir []byte) error {
	if int64(len(dir)) < z.dirSize || string(dir[:4]) != zMagic {
		return fmt.Errorf("enzo: not a compressed raw dump (bad magic)")
	}
	if np := int(binary.LittleEndian.Uint32(dir[4:])); np != z.np {
		return fmt.Errorf("enzo: compressed dump written by %d ranks, reading with %d", np, z.np)
	}
	if n := int(binary.LittleEndian.Uint32(dir[12:])); n != len(z.lens) {
		return fmt.Errorf("enzo: compressed dump has %d slots, hierarchy expects %d", n, len(z.lens))
	}
	var total int64
	for i := range z.lens {
		n := int64(binary.LittleEndian.Uint64(dir[16+8*i:]))
		// A corrupted directory could claim absurd segment lengths; reject
		// them here rather than letting readers allocate them.
		if n < 0 || n > 1<<40 || total > 1<<40 {
			return fmt.Errorf("enzo: compressed dump directory has implausible segment lengths")
		}
		z.lens[i] = n
		total += n
	}
	z.finalize()
	return nil
}

// exchangeLens distributes every rank's regular-array segment lengths
// (one batched allgather — the compressed path's only added collective)
// and finalizes the layout. mine must hold one length per regular array in
// global order.
func (z *zLayout) exchangeLens(s *Sim, mine []int64) {
	if len(mine) != len(z.regSlots) {
		panic(fmt.Sprintf("enzo: exchangeLens got %d lengths, want %d", len(mine), len(z.regSlots)))
	}
	buf := make([]byte, 8*len(mine))
	for i, n := range mine {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(n))
	}
	all := s.r.Allgatherv(buf)
	for i, slot := range z.regSlots {
		for rk := 0; rk < z.np; rk++ {
			z.lens[slot+rk] = int64(binary.LittleEndian.Uint64(all[rk][8*i:]))
		}
	}
	z.finalize()
}

// rawzLayout is the z-directory shared file.
type rawzLayout struct {
	*Sim
	forceCB bool // as rawLayout.forceCB
}

// rawzFile is an open z-directory file; its particle arrays go through the
// embedded rawFile.
type rawzFile struct {
	rawFile
	z *zLayout
	// Dump writers: every regular array packed ahead of the walk, by grid ID
	// — this rank's top-grid partitions (grid 0) and the fields of the
	// subgrids it owns.
	blobs map[int][][]byte
}

func (l rawzLayout) open(name string, mode mpiio.Mode) *rawzFile {
	zf := &rawzFile{rawFile: *rawLayout(l).open(name, mode), z: newZLayout(l.meta, l.r.Size())}
	zf.arrayOff = zf.z.arraySeg
	return zf
}

// openRead opens a file and reads its directory (rank 0 reads, everyone
// decodes). In tolerant mode an undecodable directory yields nil — every
// rank sees the same broadcast bytes, so all ranks agree — and nothing of
// the file is read. Then the segments the walk will decode are decoded
// ahead (readAhead).
func (l rawzLayout) openRead(name string, restart bool) gridReader {
	zf := l.open(name, mpiio.ModeRead)
	var dir []byte
	if l.r.Rank() == 0 {
		dir = make([]byte, zf.z.dirSize)
		// A dead data server must not crash a tolerant read-back: an
		// exhausted-retry failure leaves the buffer zeroed, the magic check
		// fails in decodeDir and every rank agrees on the nil reader.
		// Blocking even under the read-ahead pipeline: everything else
		// waits on the directory.
		l.tolerantIO(func() { zf.f.ReadAt(dir, 0) })
	}
	dir = l.r.Bcast(0, dir)
	if err := zf.z.decodeDir(dir); l.tolerate(err) {
		zf.f.Close()
		return nil
	}
	zf.readAhead(restart)
	return zf
}

func (l rawzLayout) openIC() gridReader        { return l.openRead(icRawFile(), false) }
func (l rawzLayout) openDump(d int) gridReader { return l.openRead(dumpRawFile(d), true) }

// readAhead lists, from the directory and with no read, the segments this
// rank's walk will decode (Sim.walkSegs), finds each one's stored bytes
// (Sim.peekSeg) and decodes them all in one batch (Sim.segsAhead). field
// and subgrid lend the same memory, and Compressor.Expand takes the
// decodes; close drops what it did not take. A tolerant read-back lists
// nothing: its reads fill zeros of their own (Sim.lend), which no batch
// decode is of.
func (zf *rawzFile) readAhead(restart bool) {
	if zf.tolerant {
		return
	}
	zf.walkSegs(restart, func(g core.GridMeta, lo, hi int) {
		for fi := range amr.FieldNames {
			for rk := lo; rk < hi; rk++ {
				off, n := zf.z.fieldSeg(g.ID, fi, rk)
				zf.peekSeg(zf.name, off, n)
			}
		}
	})
	zf.segsAhead()
}

func (zf *rawzFile) close() {
	zf.rawFile.close()
	zf.dropSegsAhead()
}

// writeIC stages compressed initial conditions: rank 0 scatters every
// grid's partitions, each rank packs and writes its own field segments,
// particles land raw at their fixed in-slot offsets. Used on shared and
// node-local file systems alike — per-rank segments make the initial read
// independent either way. Every grid is packed before any is written, so
// one batched allgather settles the layout.
func (l rawzLayout) writeIC(h *amr.Hierarchy) {
	zf := l.open(icRawFile(), mpiio.ModeCreate)
	z, f := zf.z, zf.f
	l.localICRows = make(map[int][2]int64)
	type staged struct {
		fields [][]byte // packed containers
		raws   []int64  // logical sizes
		rows   []byte
	}
	st := make([]staged, len(l.meta.Grids))
	mine := make([]int64, 0, len(z.regSlots))
	for gi, gm := range l.meta.Grids {
		fields, rows := l.scatterGridFromRoot(h, gm)
		st[gi].fields = make([][]byte, len(fields))
		st[gi].raws = make([]int64, len(fields))
		for fi := range fields {
			st[gi].raws[fi] = int64(len(fields[fi]))
			if len(fields[fi]) > 0 {
				st[gi].fields[fi] = l.squeeze(fields[fi])
			}
			mine = append(mine, int64(len(st[gi].fields[fi])))
		}
		st[gi].rows = rows
	}
	z.exchangeLens(l.Sim, mine)
	for gi, gm := range l.meta.Grids {
		for fi := range amr.FieldNames {
			if blob := st[gi].fields[fi]; len(blob) > 0 {
				off, _ := z.fieldSeg(gm.ID, fi, l.r.Rank())
				f.WriteAt(blob, off)
				l.recordCodecBytes(icRawFile(), true, st[gi].raws[fi], int64(len(blob)))
			}
		}
		if gm.NParticles == 0 {
			continue
		}
		myCount := int64(len(st[gi].rows) / rowSize())
		rowOff := l.r.ExscanInt64(myCount)
		flat, _ := flatColumnsFromRows(st[gi].rows)
		offs, lens, _ := zf.colList(gm.ID, rowOff, rowOff+myCount)
		f.WriteList(offs, lens, flat)
		l.localICRows[gm.ID] = [2]int64{rowOff, rowOff + myCount}
	}
	if l.r.Rank() == 0 {
		f.WriteAt(z.encodeDir(), 0)
	}
	f.Close()
}

// createDump packs every field this rank will write, before the first
// write and before the particle sort, so that one batched allgather
// settles every segment's place in the file. The compressor packs them
// all in one batch first; the squeezes below find them remembered.
func (l rawzLayout) createDump(d int) dumpWriter {
	zf := l.open(dumpRawFile(d), mpiio.ModeCreate)
	l.z.PackAll(l.dumpArrays(false))
	pack := func(fields [][]byte) [][]byte {
		blobs := make([][]byte, len(fields))
		for fi, raw := range fields {
			if len(raw) > 0 {
				blobs[fi] = l.squeeze(raw)
			}
		}
		return blobs
	}
	top := make([][]byte, len(l.top.blocks))
	for fi := range top {
		top[fi] = l.top.field(fi)
	}
	zf.blobs = map[int][][]byte{0: pack(top)}
	for _, gm := range l.meta.Subgrids() {
		if grid := l.owned[gm.ID]; grid != nil {
			zf.blobs[gm.ID] = pack(grid.Fields)
		}
	}
	mine := make([]int64, 0, len(zf.z.regSlots))
	for _, gm := range l.meta.Grids {
		blobs := zf.blobs[gm.ID] // nil for subgrids owned elsewhere
		for fi := range amr.FieldNames {
			var n int64
			if blobs != nil {
				n = int64(len(blobs[fi]))
			}
			mine = append(mine, n)
		}
	}
	zf.z.exchangeLens(l.Sim, mine)
	return zf
}

// putSeg writes this rank's packed segment of one regular array of grid
// gridID (nothing when blob is empty: a non-owner, or an empty partition).
func (zf *rawzFile) putSeg(gridID, fi int, raw, blob []byte) {
	if len(blob) == 0 {
		zf.putOwned(nil, 0, false)
		return
	}
	off, _ := zf.z.fieldSeg(gridID, fi, zf.r.Rank())
	zf.putOwned(blob, off, true)
	zf.recordCodecBytes(zf.name, true, int64(len(raw)), int64(len(blob)))
}

func (zf *rawzFile) putTopField(fi int) { zf.putSeg(0, fi, zf.top.field(fi), zf.blobs[0][fi]) }

func (zf *rawzFile) putSubgrid(gm core.GridMeta, grid *amr.Grid) {
	for fi := range amr.FieldNames {
		if grid == nil {
			zf.putSeg(gm.ID, fi, nil, nil)
		} else {
			zf.putSeg(gm.ID, fi, grid.Fields[fi], zf.blobs[gm.ID][fi])
		}
	}
	if gm.NParticles > 0 {
		zf.putSubgridParticles(gm, grid)
	}
}

// finish: rank 0 writes the directory.
func (zf *rawzFile) finish() {
	if zf.r.Rank() == 0 {
		zf.write(xfer{kind: xAt, f: zf.f, buf: zf.z.encodeDir()})
	}
	zf.rawFile.finish()
}

// field reads this rank's own segment of a regular array — the initial
// conditions were provisioned per rank and a restart uses the dump
// decomposition, so the segment is exactly the rank's partition — lent, and
// unpacks it at settle, after the data has arrived.
func (zf *rawzFile) field(g core.GridMeta, fi int, p *partition) func() {
	off, n := zf.z.fieldSeg(g.ID, fi, zf.r.Rank())
	if n == 0 {
		return settled
	}
	pieces, settle := zf.lend(xfer{kind: xAt, f: zf.f, n: n, off: off})
	blob := pfs.LentRange(pieces, off, n)
	return func() {
		settle()
		p.blocks[fi] = mpi.Packed(zf.expand(nil, blob))
		zf.recordCodecBytes(zf.name, false, p.blocks[fi].Bytes(), n)
	}
}

// subgrid: a grid's slots are adjacent in the file, so the per-segment read
// loop coalesces into one contiguous lend request per grid, whose pieces are
// copied at issue (the handle's are its scratch). The regular arrays'
// per-rank segments are cut out of them and expanded in slot order, the
// particle arrays are cut out as they are.
func (zf *rawzFile) subgrid(gm core.GridMeta) func() *amr.Grid {
	z := zf.z
	lo, hi := z.gridExtent(gm)
	var pieces []pfs.Piece
	settle := settled
	if hi > lo {
		var lent []pfs.Piece
		lent, settle = zf.lend(xfer{kind: xAt, f: zf.f, n: hi - lo, off: lo})
		pieces = slices.Clone(lent)
	}
	at := func(off, n int64) []byte { return pfs.LentRange(pieces, off, n) }
	return func() *amr.Grid {
		settle()
		grid := newGrid(gm)
		for fi := range amr.FieldNames {
			// The dump owner's slot is the grid's single non-empty segment;
			// concatenating the non-empty slots in rank order recovers the
			// whole array without knowing who owned it. The first expansion
			// is the array (a buffer of its own); only a second would be
			// appended.
			var full []byte
			for rk := 0; rk < z.np; rk++ {
				off, n := z.fieldSeg(gm.ID, fi, rk)
				if n == 0 {
					continue
				}
				raw := zf.expand(nil, at(off, n))
				zf.recordCodecBytes(zf.name, false, int64(len(raw)), n)
				if full == nil {
					full = raw
				} else {
					full = append(full, raw...)
				}
			}
			grid.Fields[fi] = full
		}
		zf.sliceParticles(gm, grid, at)
		return grid
	}
}
