// Package hdf5 models the parallel HDF version 5 library on top of MPI-IO,
// including the four overheads the paper measures in Section 4.5 to
// explain why HDF5 writes are much slower than direct MPI-IO (Figure 10):
//
//  1. dataset create/close are collective and synchronize internally
//     (barriers around every metadata operation);
//  2. metadata lives in the same file as array data, so object headers
//     push datasets onto unaligned offsets (and metadata updates seek back
//     to the superblock);
//  3. hyperslab selections are packed by a recursive iterator that is much
//     slower than a flat memcpy (per-run overhead plus a reduced packing
//     rate);
//  4. attributes can only be created/written by process 0 while everyone
//     else waits.
//
// The container format is real and self-describing: OpenRead rebuilds the
// dataset index by scanning the object-header chain, and all data written
// through hyperslabs round-trips byte-for-byte.
package hdf5

import (
	"encoding/binary"
	"fmt"

	"repro/internal/compress"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/obs"
	"repro/internal/pfs"
)

// Config holds the library overhead model. The four Disable flags switch
// off, one by one, the four overheads of Section 4.5 — with all four
// disabled the library approaches direct MPI-IO, which is how the
// BenchmarkAblationHDF5Overheads attributes Figure 10's slowdown.
type Config struct {
	SuperblockSize   int64   // bytes at the front of the file
	ObjectHeaderSize int64   // per-dataset metadata block (unaligned on purpose)
	AttrSize         int64   // bytes per attribute record
	PackRate         float64 // hyperslab packing bytes/second (< memcpy)
	PackPerRun       float64 // recursion cost per contiguous run of a selection

	// DisableCreateSync removes the internal synchronizations around
	// collective dataset create/close (overhead 1).
	DisableCreateSync bool
	// AlignData places dataset data on AlignBoundary-aligned offsets and
	// skips the superblock write-back per create, undoing the
	// metadata-in-the-data-stream misalignment (overhead 2).
	AlignData     bool
	AlignBoundary int64
	// DisableRecursivePack packs hyperslabs at memcpy speed with no
	// per-run recursion cost (overhead 3).
	DisableRecursivePack bool
	// ParallelAttrs lets the calling rank write attributes without
	// funnelling through rank 0 and waiting (overhead 4).
	ParallelAttrs bool

	// Z is the calling rank's compressor: it carries the codec the datasets
	// created with CreateDatasetZ are packed with, packs and expands them,
	// charges its cost model for both and remembers what it packed. Creating
	// or writing a compressed dataset needs it; reading one without it
	// expands for free (a container names its own codec).
	Z *compress.Compressor
	// OnCodec, when set, receives the logical/physical byte counts of every
	// compressed dataset segment transfer (write=true for writes). The
	// caller typically forwards these to a pfs.CodecReporter with the
	// container file's name attached.
	OnCodec func(write bool, logical, physical int64)
}

// DefaultConfig matches the calibration used for the paper reproduction:
// all four overheads enabled, as in the NCSA release the paper measured.
func DefaultConfig() Config {
	return Config{
		SuperblockSize:   96,
		ObjectHeaderSize: 544,
		AttrSize:         256,
		PackRate:         60e6,
		PackPerRun:       2e-6,
		AlignBoundary:    4096,
	}
}

const (
	nameLen = 64
	maxDims = 8
	// record tags: every record in the metadata/data stream starts with a
	// 4-byte tag so the open-time scan can skip attribute records that
	// interleave with dataset headers.
	tagDataset = "DSET"
	tagAttr    = "ATTR"
	tagPrefix  = 16 // tag (4) + pad (4) + record body length (8)
)

// datasetInfo is the persisted object-header payload.
type datasetInfo struct {
	Name     string
	Dims     []int
	ElemSize int
	HdrOff   int64
	DataOff  int64
	DataLen  int64

	// Codec/Segs describe a compressed dataset (CreateDatasetZ): the codec
	// that packed the data and the number of per-rank segments. Codec 0 is
	// a plain (uncompressed, hyperslab-addressable) dataset.
	Codec uint8
	Segs  int

	// ZLens caches a compressed dataset's segment lengths in the in-memory
	// index: the writer learns them from the length allgather and readers
	// from the rank-0 metadata scan at open time (broadcast with the rest
	// of the index) — node-local disks hold the on-disk directory only on
	// rank 0's node, exactly like the object headers.
	ZLens []int64
}

// compressed datasets store a segment directory at DataOff — one entry per
// communicator rank — followed by the per-rank container blobs:
//
//	dir := seg count (u32) | pad (u32) | Segs x (abs offset u64, length u64)
//
// A rank's segment holds its own partition of the array, independently
// packed, so reads need only the directory plus the wanted segment.
func zDirSize(segs int) int64 { return 8 + 16*int64(segs) }

// File is an HDF5-like container opened collectively by every rank of a
// communicator.
type File struct {
	r      *mpi.Rank
	mf     *mpiio.File
	cfg    Config
	eof    int64
	index  map[string]*datasetInfo
	order  []string
	runBuf []mpi.Run // slabRuns' result, rebuilt per selection
	// metaNote, when set by SetWriteBehindMeta, puts rank 0's internal
	// metadata writes into write-behind mode.
	metaNote func(end float64)
}

// SetWriteBehindMeta puts the file's internal rank-0 metadata writes
// (dataset object headers, superblock updates, attribute records) into
// write-behind mode: each is issued deferred and its completion reported to
// note. This models the library's metadata cache — dirty headers are
// flushed lazily instead of synchronously per create/close — and is only
// meaningful while the caller drains the reported completions before
// reading the file. The eager per-dataset create/close synchronizations
// are elided too (as with DisableCreateSync): with headers write-behind
// there is no per-dataset consistency point to enforce, the drain settles
// the whole file at once. Pass nil to restore synchronous metadata.
func (h *File) SetWriteBehindMeta(note func(end float64)) { h.metaNote = note }

// metaWrite performs one rank-0 internal metadata write (object header,
// superblock, attribute record): synchronously by default, deferred with
// the completion reported to metaNote in write-behind mode.
func (h *File) metaWrite(data []byte, off int64) {
	if p := h.mf.IssueWriteAt(h.metaNote != nil, data, off); p != nil {
		h.metaNote(p.Completion())
	}
}

// eagerMetaSync reports whether dataset create/close run their eager
// internal synchronizations. They are elided both by the explicit
// DisableCreateSync tuning knob and in write-behind metadata mode, where
// dirty headers sit in the metadata cache and consistency is settled once
// at the caller's drain instead of per dataset. The call protocol stays
// SPMD either way — every rank still computes the same allocation.
func (h *File) eagerMetaSync() bool {
	return !h.cfg.DisableCreateSync && h.metaNote == nil
}

// Create collectively creates a container. Rank 0 writes the superblock.
func Create(r *mpi.Rank, fs pfs.FileSystem, name string, cfg Config, hints mpiio.Hints) (*File, error) {
	defer obs.Begin(r.Proc(), obs.LayerHDF, "md_create").Attr("file", name).End()
	mf, err := mpiio.Open(r, fs, name, mpiio.ModeCreate, hints)
	if err != nil {
		return nil, err
	}
	h := &File{r: r, mf: mf, cfg: cfg, index: make(map[string]*datasetInfo)}
	if r.Rank() == 0 {
		h.writeSuperblock()
	}
	r.Barrier()
	h.eof = cfg.SuperblockSize
	return h, nil
}

// OpenRead collectively opens an existing container. Rank 0 scans the
// object-header chain and broadcasts the index.
//
// The scan's failure modes — a corrupt record, or an *mpiio.IOError panic
// from an exhausted retry policy — are broadcast too: rank 0 sends an empty
// index and every rank returns the same error, so an unreadable container
// never leaves the other ranks parked in the index broadcast. A valid index
// is never empty (it always carries the 8-byte eof), so zero length is an
// unambiguous failure marker.
func OpenRead(r *mpi.Rank, fs pfs.FileSystem, name string, cfg Config, hints mpiio.Hints) (*File, error) {
	defer obs.Begin(r.Proc(), obs.LayerHDF, "md_open").Attr("file", name).End()
	mf, err := mpiio.Open(r, fs, name, mpiio.ModeRead, hints)
	if err != nil {
		return nil, err
	}
	h := &File{r: r, mf: mf, cfg: cfg, index: make(map[string]*datasetInfo)}
	var enc []byte
	if r.Rank() == 0 {
		scanErr := func() (serr error) {
			mark := obs.Mark(r.Proc())
			defer func() {
				if rec := recover(); rec != nil {
					ioe, ok := rec.(*mpiio.IOError)
					if !ok {
						panic(rec)
					}
					obs.Unwind(r.Proc(), mark)
					serr = ioe
				}
			}()
			return h.scanIndex(mf, name)
		}()
		if scanErr == nil {
			enc = h.encodeIndex()
		}
		h.r.Bcast(0, enc)
		if scanErr != nil {
			mf.Close()
			return nil, scanErr
		}
	} else {
		enc = h.r.Bcast(0, nil)
		if len(enc) == 0 {
			mf.Close()
			return nil, fmt.Errorf("hdf5: %q: rank 0 could not read the metadata index", name)
		}
		h.decodeIndex(enc)
	}
	return h, nil
}

// scanIndex walks the superblock and object-header chain, filling the
// in-memory index. Run on rank 0 only; I/O errors surface as *mpiio.IOError
// panics from the layer below.
func (h *File) scanIndex(mf *mpiio.File, name string) error {
	cfg := h.cfg
	sb := make([]byte, cfg.SuperblockSize)
	mf.ReadAt(sb, 0)
	if string(sb[:4]) != "\x89HDF" {
		return fmt.Errorf("hdf5: %q is not an HDF5 container", name)
	}
	count := int(binary.LittleEndian.Uint32(sb[4:]))
	off := cfg.SuperblockSize
	for found := 0; found < count; {
		prefix := make([]byte, tagPrefix)
		mf.ReadAt(prefix, off)
		bodyLen := int64(binary.LittleEndian.Uint64(prefix[8:]))
		switch string(prefix[:4]) {
		case tagAttr:
			off += cfg.AttrSize // skip attribute record
		case tagDataset:
			hdr := make([]byte, cfg.ObjectHeaderSize)
			mf.ReadAt(hdr, off)
			info := decodeHeader(hdr)
			info.HdrOff = off
			if info.Codec != 0 && info.Segs > 0 {
				// Pull the segment directory into the index while we
				// are the one rank scanning the metadata.
				dir := make([]byte, zDirSize(info.Segs))
				mf.ReadAt(dir, info.DataOff)
				if got := int(binary.LittleEndian.Uint32(dir)); got != info.Segs {
					return fmt.Errorf("hdf5: dataset %q: segment directory says %d segments, header says %d",
						info.Name, got, info.Segs)
				}
				info.ZLens = make([]int64, info.Segs)
				for i := range info.ZLens {
					info.ZLens[i] = int64(binary.LittleEndian.Uint64(dir[16+16*i:]))
				}
			}
			h.addInfo(info)
			off = info.DataOff + bodyLen
			found++
		default:
			return fmt.Errorf("hdf5: %q: corrupt record at offset %d", name, off)
		}
	}
	h.eof = off
	return nil
}

func (h *File) addInfo(info *datasetInfo) {
	h.index[info.Name] = info
	h.order = append(h.order, info.Name)
}

func (h *File) writeSuperblock() {
	sb := make([]byte, h.cfg.SuperblockSize)
	copy(sb, "\x89HDF")
	binary.LittleEndian.PutUint32(sb[4:], uint32(len(h.order)))
	h.metaWrite(sb, 0)
}

func encodeHeader(cfg Config, info *datasetInfo) []byte {
	hdr := make([]byte, cfg.ObjectHeaderSize)
	copy(hdr[:4], tagDataset)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(info.DataLen))
	p := tagPrefix
	copy(hdr[p:p+nameLen], info.Name)
	binary.LittleEndian.PutUint32(hdr[p+nameLen:], uint32(len(info.Dims)))
	for i, d := range info.Dims {
		binary.LittleEndian.PutUint64(hdr[p+nameLen+4+8*i:], uint64(d))
	}
	binary.LittleEndian.PutUint32(hdr[p+nameLen+4+8*maxDims:], uint32(info.ElemSize))
	binary.LittleEndian.PutUint64(hdr[p+nameLen+8+8*maxDims:], uint64(info.DataOff))
	binary.LittleEndian.PutUint32(hdr[p+nameLen+16+8*maxDims:], uint32(info.Codec))
	binary.LittleEndian.PutUint32(hdr[p+nameLen+20+8*maxDims:], uint32(info.Segs))
	return hdr
}

func decodeHeader(hdr []byte) *datasetInfo {
	info := &datasetInfo{}
	info.DataLen = int64(binary.LittleEndian.Uint64(hdr[8:]))
	p := tagPrefix
	end := p
	for end < p+nameLen && hdr[end] != 0 {
		end++
	}
	info.Name = string(hdr[p:end])
	rank := int(binary.LittleEndian.Uint32(hdr[p+nameLen:]))
	for i := 0; i < rank && i < maxDims; i++ {
		info.Dims = append(info.Dims, int(binary.LittleEndian.Uint64(hdr[p+nameLen+4+8*i:])))
	}
	info.ElemSize = int(binary.LittleEndian.Uint32(hdr[p+nameLen+4+8*maxDims:]))
	info.DataOff = int64(binary.LittleEndian.Uint64(hdr[p+nameLen+8+8*maxDims:]))
	info.Codec = uint8(binary.LittleEndian.Uint32(hdr[p+nameLen+16+8*maxDims:]))
	info.Segs = int(binary.LittleEndian.Uint32(hdr[p+nameLen+20+8*maxDims:]))
	return info
}

// encodeIndex/decodeIndex serialize the index for the open-time broadcast.
func (h *File) encodeIndex() []byte {
	var out []byte
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(h.eof))
	out = append(out, n[:]...)
	for _, name := range h.order {
		info := h.index[name]
		hdr := encodeHeader(h.cfg, info)
		binary.LittleEndian.PutUint64(n[:], uint64(info.HdrOff))
		out = append(out, n[:]...)
		out = append(out, hdr...)
		binary.LittleEndian.PutUint64(n[:], uint64(len(info.ZLens)))
		out = append(out, n[:]...)
		for _, l := range info.ZLens {
			binary.LittleEndian.PutUint64(n[:], uint64(l))
			out = append(out, n[:]...)
		}
	}
	return out
}

func (h *File) decodeIndex(enc []byte) {
	h.eof = int64(binary.LittleEndian.Uint64(enc))
	hdrLen := h.cfg.ObjectHeaderSize
	for p := int64(8); p+8+hdrLen+8 <= int64(len(enc)); {
		hdrOff := int64(binary.LittleEndian.Uint64(enc[p:]))
		info := decodeHeader(enc[p+8 : p+8+hdrLen])
		info.HdrOff = hdrOff
		p += 8 + hdrLen
		nz := int(binary.LittleEndian.Uint64(enc[p:]))
		p += 8
		if nz > 0 {
			info.ZLens = make([]int64, nz)
			for i := 0; i < nz; i++ {
				info.ZLens[i] = int64(binary.LittleEndian.Uint64(enc[p:]))
				p += 8
			}
		}
		h.addInfo(info)
	}
}

// Dataset is an open dataset handle.
type Dataset struct {
	h    *File
	info *datasetInfo
}

// CreateDataset collectively creates a dataset. This is where overheads
// (1) and (2) live: two internal synchronizations, a metadata write at the
// allocation point and a superblock update seeking back to offset 0, all
// by rank 0 while the others wait.
func (h *File) CreateDataset(name string, dims []int, elemSize int) (*Dataset, error) {
	n := int64(elemSize)
	for _, d := range dims {
		n *= int64(d)
	}
	return h.createDataset(name, dims, elemSize, 0, 0, n)
}

// CreateDatasetZ collectively creates a compressed ("chunked+filtered")
// dataset: its data region starts with a per-rank segment directory, and
// the actual array bytes arrive packed through WriteCompressed, by the codec
// of Config.Z. The same create/close synchronization overheads apply —
// compression changes the data volume, not the metadata protocol.
func (h *File) CreateDatasetZ(name string, dims []int, elemSize int) (*Dataset, error) {
	if h.cfg.Z == nil || h.cfg.Z.Codec() == nil || h.cfg.Z.Codec().ID() == 0 {
		return nil, fmt.Errorf("hdf5: dataset %q: CreateDatasetZ needs a compressor with an active codec (Config.Z)", name)
	}
	return h.createDataset(name, dims, elemSize, h.cfg.Z.Codec().ID(), h.r.Size(), zDirSize(h.r.Size()))
}

func (h *File) createDataset(name string, dims []int, elemSize int, codec uint8, segs int, dataLen int64) (*Dataset, error) {
	if len(dims) == 0 || len(dims) > maxDims {
		return nil, fmt.Errorf("hdf5: dataset %q has unsupported rank %d", name, len(dims))
	}
	if len(name) > nameLen {
		return nil, fmt.Errorf("hdf5: dataset name %q too long", name)
	}
	if _, dup := h.index[name]; dup {
		return nil, fmt.Errorf("hdf5: dataset %q already exists", name)
	}
	defer obs.Begin(h.r.Proc(), obs.LayerHDF, "md_dataset_create").Attr("dataset", name).End()
	n := dataLen
	if h.eagerMetaSync() {
		h.r.Barrier() // internal sync on entry
	}
	dataOff := h.eof + h.cfg.ObjectHeaderSize
	if h.cfg.AlignData && h.cfg.AlignBoundary > 0 {
		if rem := dataOff % h.cfg.AlignBoundary; rem != 0 {
			dataOff += h.cfg.AlignBoundary - rem
		}
	}
	info := &datasetInfo{
		Name: name, Dims: append([]int(nil), dims...), ElemSize: elemSize,
		HdrOff: h.eof, DataOff: dataOff, DataLen: n,
		Codec: codec, Segs: segs,
	}
	h.addInfo(info)
	if h.r.Rank() == 0 {
		h.metaWrite(encodeHeader(h.cfg, info), info.HdrOff)
		if !h.cfg.AlignData {
			h.writeSuperblock() // seeks back to 0: metadata and data share the file
		}
	}
	h.eof = info.DataOff + n
	if h.eagerMetaSync() {
		h.r.Barrier() // internal sync on exit
	}
	return &Dataset{h: h, info: info}, nil
}

// OpenDataset opens an existing dataset (from the index; no extra I/O, the
// headers were scanned at open time).
func (h *File) OpenDataset(name string) (*Dataset, error) {
	info, ok := h.index[name]
	if !ok {
		return nil, fmt.Errorf("hdf5: no dataset %q", name)
	}
	return &Dataset{h: h, info: info}, nil
}

// Datasets lists dataset names in creation order.
func (h *File) Datasets() []string {
	out := make([]string, len(h.order))
	copy(out, h.order)
	return out
}

// Dims returns the dataset extent.
func (d *Dataset) Dims() []int { return append([]int(nil), d.info.Dims...) }

// ElemSize returns the element size in bytes.
func (d *Dataset) ElemSize() int { return d.info.ElemSize }

// packCost charges overhead (3): the recursive hyperslab iterator.
func (d *Dataset) packCost(nruns int, bytes int64) {
	defer obs.Begin(d.h.r.Proc(), obs.LayerHDF, "pack").Bytes(bytes).End()
	if d.h.cfg.DisableRecursivePack {
		d.h.r.CopyCost(bytes) // flat memcpy-speed pack
		return
	}
	cost := float64(nruns)*d.h.cfg.PackPerRun + float64(bytes)/d.h.cfg.PackRate
	d.h.r.Proc().Advance(cost)
}

// slabRuns converts a selection within the dataset into absolute file runs.
// The list lives in the file handle's one run buffer and is good until the
// next selection on that handle — MPI-IO consumes a view when the access is
// issued, in either issue mode.
func (d *Dataset) slabRuns(sel mpi.Subarray) []mpi.Run {
	if err := sel.Validate(); err != nil {
		panic(err)
	}
	if sel.ElemSize != d.info.ElemSize || len(sel.Sizes) != len(d.info.Dims) {
		panic(fmt.Sprintf("hdf5: selection shape does not match dataset %q", d.info.Name))
	}
	for i, s := range sel.Sizes {
		if s != d.info.Dims[i] {
			panic(fmt.Sprintf("hdf5: selection dataspace %v does not match dataset dims %v",
				sel.Sizes, d.info.Dims))
		}
	}
	d.h.runBuf = sel.AppendRuns(d.h.runBuf[:0], d.info.DataOff)
	return d.h.runBuf
}

// WriteHyperslab collectively writes a hyperslab selection; every rank of
// the communicator must call it (possibly with an empty selection).
func (d *Dataset) WriteHyperslab(sel mpi.Subarray, data []byte) {
	d.IssueWriteHyperslab(false, true, sel, data)
}

// WriteHyperslabIndependent writes a selection without collective
// coordination (used for the irregular particle arrays, where each rank's
// block is contiguous).
func (d *Dataset) WriteHyperslabIndependent(sel mpi.Subarray, data []byte) {
	d.IssueWriteHyperslab(false, false, sel, data)
}

// IssueWriteHyperslab writes a hyperslab selection, collectively or
// independently, in either MPI-IO issue mode. Blocking, it returns nil.
// Behind, the pack cost and (collectively) the two-phase exchange run now
// and the device time is deferred to the returned handle's Wait; every rank
// of a collective write must Wait its handles in the same order.
func (d *Dataset) IssueWriteHyperslab(behind, collective bool, sel mpi.Subarray, data []byte) *mpiio.Pending {
	sp := d.dataSpan(behind, slabOp(collective, "data_write", "data_write_indep")).Bytes(int64(len(data)))
	defer sp.End()
	runs := d.slabRuns(sel)
	d.packCost(len(runs), int64(len(data)))
	if collective {
		return d.h.mf.IssueWriteAtAll(behind, runs, data)
	}
	return d.h.mf.IssueWriteRuns(behind, runs, data)
}

// IssueReadHyperslab reads a hyperslab selection independently into buf, in
// either MPI-IO issue mode. The scatter back through the selection iterator
// is causally downstream of the data: blocking, it is charged before the
// call returns (nil); behind, it runs at the end of the returned handle's
// Wait, and buf is valid only after that.
func (d *Dataset) IssueReadHyperslab(behind bool, sel mpi.Subarray, buf []byte) *mpiio.Pending {
	sp := d.dataSpan(behind, "data_read_indep").Bytes(int64(len(buf)))
	defer sp.End()
	runs := d.slabRuns(sel)
	p := d.h.mf.IssueReadRuns(behind, runs, buf)
	return d.unpack(behind, p, len(runs), int64(len(buf)))
}

// IssueReadHyperslabInto is IssueReadHyperslab done collectively, into a
// buffer the two-phase read allocates (mpiio.File.IssueReadAtAllInto).
func (d *Dataset) IssueReadHyperslabInto(behind bool, sel mpi.Subarray, out *[]byte) *mpiio.Pending {
	sp := d.dataSpan(behind, "data_read").Bytes(sel.Bytes())
	defer sp.End()
	runs := d.slabRuns(sel)
	p := d.h.mf.IssueReadAtAllInto(behind, runs, out)
	return d.unpack(behind, p, len(runs), sel.Bytes())
}

// IssueLendHyperslab is IssueReadHyperslab, lent, of a selection contiguous
// in the file (mpiio.File.IssueLendRuns).
func (d *Dataset) IssueLendHyperslab(behind bool, sel mpi.Subarray) ([][]byte, *mpiio.Pending) {
	sp := d.dataSpan(behind, "data_read_indep").Bytes(sel.Bytes())
	defer sp.End()
	runs := d.slabRuns(sel)
	pieces, p := d.h.mf.IssueLendRuns(behind, runs)
	return pieces, d.unpack(behind, p, len(runs), sel.Bytes())
}

// unpack charges a read's scatter through the selection iterator: now when
// blocking (nil), at the end of p's Wait when behind.
func (d *Dataset) unpack(behind bool, p *mpiio.Pending, nruns int, nbytes int64) *mpiio.Pending {
	if !behind {
		d.packCost(nruns, nbytes)
		return nil
	}
	return p.Then(func() { d.packCost(nruns, nbytes) })
}

// slabOp picks a hyperslab transfer's span name (constants: building the
// name would allocate on every call).
func slabOp(collective bool, coll, indep string) string {
	if collective {
		return coll
	}
	return indep
}

// dataSpan opens the HDF-layer span of a bulk data transfer, marked
// deferred when it is only issued here.
func (d *Dataset) dataSpan(behind bool, op string) *obs.Active {
	sp := obs.Begin(d.h.r.Proc(), obs.LayerHDF, op)
	if behind {
		sp.Attr("deferred", "1")
	}
	return sp
}

// expander returns the rank's configured compressor or, for a reader that
// configured none, a free one that remembers nothing past the call
// (expanding needs no codec: a container names its own).
func (h *File) expander() *compress.Compressor {
	if h.cfg.Z != nil {
		return h.cfg.Z
	}
	return compress.NewCompressor(nil, compress.CostModel{})
}

// Compressed reports whether the dataset was created with CreateDatasetZ.
func (d *Dataset) Compressed() bool { return d.info.Codec != 0 }

// WriteCompressed collectively writes this rank's partition of a
// compressed dataset: the raw bytes are packed into the chunked container
// on the caller's clock, segment lengths are exchanged (the collective
// synchronization point, replacing the two-phase offset exchange), each
// rank appends its blob after the directory, and rank 0 writes the
// directory. Ranks without data pass raw == nil and contribute an empty
// segment. Config.Z packs, with the codec the dataset was created with.
func (d *Dataset) WriteCompressed(raw []byte) {
	d.IssueWriteCompressed(false, raw)
}

// IssueWriteCompressed is WriteCompressed in either MPI-IO issue mode.
// Behind, the compression CPU and the segment-length allgather still run at
// issue (they need the rank on the CPU and keep the broadcast index
// consistent); only the device time of the segment and directory writes is
// deferred to the returned handle's Wait.
func (d *Dataset) IssueWriteCompressed(behind bool, raw []byte) *mpiio.Pending {
	z := d.h.cfg.Z
	if !d.Compressed() || z == nil || z.Codec() == nil || z.Codec().ID() != d.info.Codec {
		panic(fmt.Sprintf("hdf5: dataset %q: WriteCompressed codec mismatch", d.info.Name))
	}
	defer d.dataSpan(behind, "data_write_z").Bytes(int64(len(raw))).End()
	var blob []byte
	if len(raw) > 0 {
		blob = z.Squeeze(d.h.r.Proc(), raw)
	}
	plens := d.h.r.AllgatherInt64(int64(len(blob)))
	segBase := d.info.DataOff + zDirSize(d.info.Segs)
	end := d.h.r.Now() // behind: the latest deferred completion
	write := func(data []byte, off int64) {
		if p := d.h.mf.IssueWriteAt(behind, data, off); p != nil && p.Completion() > end {
			end = p.Completion()
		}
	}
	off := segBase
	var total int64
	for rk, n := range plens {
		if rk == d.h.r.Rank() && n > 0 {
			write(blob, off)
		}
		off += n
		total += n
	}
	if d.h.r.Rank() == 0 {
		dir := make([]byte, zDirSize(d.info.Segs))
		binary.LittleEndian.PutUint32(dir, uint32(d.info.Segs))
		at := segBase
		for rk, n := range plens {
			binary.LittleEndian.PutUint64(dir[8+16*rk:], uint64(at))
			binary.LittleEndian.PutUint64(dir[16+16*rk:], uint64(n))
			at += n
		}
		write(dir, d.info.DataOff)
	}
	d.info.ZLens = plens
	d.info.DataLen = zDirSize(d.info.Segs) + total
	d.h.eof = d.info.DataOff + d.info.DataLen
	if len(raw) > 0 && d.h.cfg.OnCodec != nil {
		d.h.cfg.OnCodec(true, int64(len(raw)), int64(len(blob)))
	}
	if !behind {
		return nil
	}
	return d.h.mf.NewPending(end)
}

// readZDir fetches the segment directory — from the index when it was
// cached at open/write time (the usual case; on node-local disks the
// on-disk copy exists only on rank 0's node), falling back to an
// independent on-disk read otherwise.
func (d *Dataset) readZDir() ([]int64, []int64, error) {
	if d.info.ZLens != nil {
		offs := make([]int64, d.info.Segs)
		lens := make([]int64, d.info.Segs)
		at := d.info.DataOff + zDirSize(d.info.Segs)
		for i, l := range d.info.ZLens {
			offs[i], lens[i] = at, l
			at += l
		}
		return offs, lens, nil
	}
	dir := make([]byte, zDirSize(d.info.Segs))
	d.h.mf.ReadAt(dir, d.info.DataOff)
	if got := int(binary.LittleEndian.Uint32(dir)); got != d.info.Segs {
		return nil, nil, fmt.Errorf("hdf5: dataset %q: segment directory says %d segments, header says %d",
			d.info.Name, got, d.info.Segs)
	}
	offs := make([]int64, d.info.Segs)
	lens := make([]int64, d.info.Segs)
	for i := 0; i < d.info.Segs; i++ {
		offs[i] = int64(binary.LittleEndian.Uint64(dir[8+16*i:]))
		lens[i] = int64(binary.LittleEndian.Uint64(dir[16+16*i:]))
	}
	return offs, lens, nil
}

// IssueReadCompressed is the one compressed-segment reader: it reads
// segment slot — every non-empty segment in slot order when slot is
// negative — verifies and unpacks the containers, and leaves the decoded
// bytes, concatenated, in *out (nil if the segments are empty, or on error).
//
// Blocking, each segment is read and then decoded in turn, and failures
// return as errors. Behind, every blob transfer is charged now and the
// returned handle's Wait settles the clock and then unpacks — the codec CPU
// runs after the data has arrived, exactly as when blocking. *out is valid
// only after that Wait, which has nowhere to return a decode failure and
// panics with the error instead; its callers are read-ahead pipelines,
// which never run in a tolerant mode that could absorb one.
func (d *Dataset) IssueReadCompressed(behind bool, slot int, out *[]byte) (*mpiio.Pending, error) {
	*out = nil
	if !d.Compressed() {
		return nil, fmt.Errorf("hdf5: dataset %q is not compressed", d.info.Name)
	}
	if slot >= d.info.Segs {
		return nil, fmt.Errorf("hdf5: dataset %q has no segment %d", d.info.Name, slot)
	}
	var sp *obs.Active // blocking: one span around the reads and the decodes
	if !behind {
		sp = obs.Begin(d.h.r.Proc(), obs.LayerHDF, "data_read_z")
		defer sp.End()
	}
	offs, lens, err := d.readZDir()
	if err != nil {
		return nil, err
	}
	lo, hi := slot, slot+1
	if slot < 0 {
		lo, hi = 0, d.info.Segs
	}
	end := d.h.r.Now() // behind: the latest deferred completion
	type fetchedSeg struct {
		slot int
		blob []byte
	}
	var fetched []fetchedSeg // behind: the containers on their way, for Wait
	for i := lo; i < hi; i++ {
		if lens[i] == 0 {
			continue
		}
		blob := make([]byte, lens[i])
		if p := d.h.mf.IssueReadAt(behind, blob, offs[i]); p != nil {
			if p.Completion() > end {
				end = p.Completion()
			}
			fetched = append(fetched, fetchedSeg{i, blob})
		} else if err := d.decodeSeg(i, blob, out); err != nil {
			*out = nil
			return nil, err
		}
	}
	if !behind {
		sp.Bytes(int64(len(*out)))
		return nil, nil
	}
	segs := fetched // assigned once, so the closure captures it by value and fetched stays on the stack
	return d.h.mf.NewPending(end).Then(func() {
		sp := obs.Begin(d.h.r.Proc(), obs.LayerHDF, "data_read_z")
		defer sp.End()
		for _, seg := range segs {
			if err := d.decodeSeg(seg.slot, seg.blob, out); err != nil {
				panic(err)
			}
		}
		sp.Bytes(int64(len(*out)))
	}), nil
}

// decodeSeg verifies one segment's container and decodes it onto *out, on
// the caller's clock.
func (d *Dataset) decodeSeg(slot int, blob []byte, out *[]byte) error {
	base := len(*out)
	dec, err := d.h.expander().Expand(d.h.r.Proc(), *out, blob)
	if err != nil {
		return fmt.Errorf("hdf5: dataset %q segment %d: %w", d.info.Name, slot, err)
	}
	*out = dec
	if d.h.cfg.OnCodec != nil {
		d.h.cfg.OnCodec(false, int64(len(dec)-base), int64(len(blob)))
	}
	return nil
}

// Close collectively closes the dataset: another sync plus a rank-0
// object-header rewrite (overhead 1 again).
func (d *Dataset) Close() {
	defer obs.Begin(d.h.r.Proc(), obs.LayerHDF, "md_dataset_close").End()
	if d.h.eagerMetaSync() {
		d.h.r.Barrier()
	}
	if d.h.r.Rank() == 0 {
		d.h.metaWrite(encodeHeader(d.h.cfg, d.info), d.info.HdrOff)
	}
	if d.h.eagerMetaSync() {
		d.h.r.Barrier()
	}
}

// WriteAttribute stores a small metadata attribute. Only rank 0 writes
// (overhead 4); everyone else waits at the trailing synchronization.
func (h *File) WriteAttribute(name string, value []byte) {
	if int64(len(value)) > h.cfg.AttrSize-int64(nameLen)-tagPrefix {
		panic(fmt.Sprintf("hdf5: attribute %q too large", name))
	}
	defer obs.Begin(h.r.Proc(), obs.LayerHDF, "md_attr").Attr("attr", name).End()
	if h.r.Rank() == 0 {
		rec := make([]byte, h.cfg.AttrSize)
		copy(rec[:4], tagAttr)
		binary.LittleEndian.PutUint64(rec[8:], uint64(len(value)))
		copy(rec[tagPrefix:tagPrefix+nameLen], name)
		copy(rec[tagPrefix+nameLen:], value)
		h.metaWrite(rec, h.eof)
	}
	h.eof += h.cfg.AttrSize
	if !h.cfg.ParallelAttrs && h.metaNote == nil {
		h.r.Barrier()
	}
}

// Close collectively closes the container (final superblock update by
// rank 0).
func (h *File) Close() {
	defer obs.Begin(h.r.Proc(), obs.LayerHDF, "md_close").End()
	h.r.Barrier()
	if h.r.Rank() == 0 {
		h.writeSuperblock()
	}
	h.mf.Close()
	h.r.Barrier()
}
