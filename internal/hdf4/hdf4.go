// Package hdf4 models the sequential HDF version 4 scientific-data-set
// (SDS) library ENZO originally used for its I/O. The model reproduces the
// behaviours that matter for the paper:
//
//   - strictly sequential: one process owns a file handle; there is no
//     parallel access path, which is why the original ENZO funnels all
//     top-grid I/O through processor 0;
//   - each SDS write interleaves small metadata writes (a data descriptor
//     record and a header update) with the one large data write, breaking
//     pure sequential disk access;
//   - readers locate an SDS by scanning the descriptor chain with small
//     reads.
//
// The container layout is real: a reader gets back exactly the bytes a
// writer stored, and the test suite verifies round trips.
package hdf4

import (
	"encoding/binary"
	"fmt"

	"repro/internal/obs"
	"repro/internal/pfs"
)

// Layout constants of the simulated container format.
const (
	headerSize = 16  // magic + version + SDS count
	ddSize     = 256 // fixed data-descriptor record
	maxDims    = 8
	nameLen    = 64
	magic      = 0x0E031301 // ^N^C^S^A, as in real HDF4
)

// SDSInfo describes one scientific data set in the container.
type SDSInfo struct {
	Name     string
	Dims     []int
	ElemSize int
	DataOff  int64
	DataLen  int64
}

// Bytes returns the data payload size.
func (s SDSInfo) Bytes() int64 { return s.DataLen }

// SDFile is an open HDF4-like container. It is a sequential-library
// handle: all operations must come from the process that opened it.
type SDFile struct {
	f      pfs.File
	client pfs.Client
	owner  int // sim proc id that opened the handle
	eof    int64
	index  []SDSInfo
	byName map[string]int
	lent   pfs.Lend // ReadSDS's lend read, reused
}

// Create makes a new container on fs, owned by the calling client.
func Create(c pfs.Client, fs pfs.FileSystem, name string) (*SDFile, error) {
	defer obs.Begin(c.Proc, obs.LayerHDF, "sd_create").Attr("file", name).End()
	f, err := fs.Create(c, name)
	if err != nil {
		return nil, err
	}
	s := &SDFile{f: f, client: c, owner: c.Proc.ID(), byName: make(map[string]int)}
	s.writeHeader()
	s.eof = headerSize
	return s, nil
}

// Open opens an existing container for reading, scanning the descriptor
// chain to build the in-memory index (one small read per SDS, as the real
// library's DD-list walk does).
func Open(c pfs.Client, fs pfs.FileSystem, name string) (*SDFile, error) {
	defer obs.Begin(c.Proc, obs.LayerHDF, "sd_open").Attr("file", name).End()
	f, err := fs.Open(c, name)
	if err != nil {
		return nil, err
	}
	s := &SDFile{f: f, client: c, owner: c.Proc.ID(), byName: make(map[string]int)}
	hdr := make([]byte, headerSize)
	f.ReadAt(c, hdr, 0)
	if binary.LittleEndian.Uint32(hdr) != magic {
		return nil, fmt.Errorf("hdf4: %q is not an HDF container", name)
	}
	count := int(binary.LittleEndian.Uint32(hdr[8:]))
	off := int64(headerSize)
	for i := 0; i < count; i++ {
		dd := make([]byte, ddSize)
		f.ReadAt(c, dd, off)
		info, err := decodeDD(dd)
		if err != nil {
			return nil, fmt.Errorf("hdf4: %q: %w", name, err)
		}
		info.DataOff = off + ddSize
		s.byName[info.Name] = len(s.index)
		s.index = append(s.index, info)
		off = info.DataOff + info.DataLen
	}
	s.eof = off
	return s, nil
}

func (s *SDFile) check() {
	if s.client.Proc.ID() != s.owner {
		panic("hdf4: sequential library used from a process other than its opener")
	}
}

func (s *SDFile) writeHeader() {
	hdr := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[4:], 4) // "version"
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(s.index)))
	s.f.WriteAt(s.client, hdr, 0)
}

func encodeDD(info SDSInfo) []byte {
	dd := make([]byte, ddSize)
	copy(dd[:nameLen], info.Name)
	binary.LittleEndian.PutUint32(dd[nameLen:], uint32(len(info.Dims)))
	for i, d := range info.Dims {
		binary.LittleEndian.PutUint64(dd[nameLen+4+8*i:], uint64(d))
	}
	binary.LittleEndian.PutUint32(dd[nameLen+4+8*maxDims:], uint32(info.ElemSize))
	binary.LittleEndian.PutUint64(dd[nameLen+8+8*maxDims:], uint64(info.DataLen))
	return dd
}

func decodeDD(dd []byte) (SDSInfo, error) {
	var info SDSInfo
	end := 0
	for end < nameLen && dd[end] != 0 {
		end++
	}
	info.Name = string(dd[:end])
	rank := int(binary.LittleEndian.Uint32(dd[nameLen:]))
	if rank < 0 || rank > maxDims {
		return info, fmt.Errorf("corrupt descriptor rank %d", rank)
	}
	for i := 0; i < rank; i++ {
		info.Dims = append(info.Dims, int(binary.LittleEndian.Uint64(dd[nameLen+4+8*i:])))
	}
	info.ElemSize = int(binary.LittleEndian.Uint32(dd[nameLen+4+8*maxDims:]))
	info.DataLen = int64(binary.LittleEndian.Uint64(dd[nameLen+8+8*maxDims:]))
	return info, nil
}

// WriteSDS appends a named array to the container: one descriptor write,
// one data write, one header update (the interleaved small-metadata
// pattern of the real library).
func (s *SDFile) WriteSDS(name string, dims []int, elemSize int, data []byte) error {
	s.check()
	if len(dims) == 0 || len(dims) > maxDims {
		return fmt.Errorf("hdf4: SDS %q has unsupported rank %d", name, len(dims))
	}
	if len(name) > nameLen {
		return fmt.Errorf("hdf4: SDS name %q too long", name)
	}
	n := int64(elemSize)
	for _, d := range dims {
		if d <= 0 {
			return fmt.Errorf("hdf4: SDS %q has dimension %d", name, d)
		}
		n *= int64(d)
	}
	if n != int64(len(data)) {
		return fmt.Errorf("hdf4: SDS %q dims imply %d bytes, got %d", name, n, len(data))
	}
	sp := obs.Begin(s.client.Proc, obs.LayerHDF, "sds_write").Bytes(n).Attr("sds", name)
	defer sp.End()
	info := SDSInfo{Name: name, Dims: append([]int(nil), dims...), ElemSize: elemSize,
		DataOff: s.eof + ddSize, DataLen: n}
	md := obs.Begin(s.client.Proc, obs.LayerHDF, "sds_meta")
	s.f.WriteAt(s.client, encodeDD(info), s.eof)
	md.End()
	s.f.WriteAt(s.client, data, info.DataOff)
	s.eof = info.DataOff + n
	s.byName[name] = len(s.index)
	s.index = append(s.index, info)
	md = obs.Begin(s.client.Proc, obs.LayerHDF, "sds_meta")
	s.writeHeader()
	md.End()
	return nil
}

// Lookup returns the descriptor of a named SDS.
func (s *SDFile) Lookup(name string) (SDSInfo, error) {
	i, ok := s.byName[name]
	if !ok {
		return SDSInfo{}, fmt.Errorf("hdf4: no SDS %q", name)
	}
	return s.index[i], nil
}

// ReadSDS returns a named array's descriptor and data. The data is lent
// (pfs.Lend) and read-only: the file's own bytes when one write stored them,
// else a copy of the pieces. A caller that needs to modify it copies it.
func (s *SDFile) ReadSDS(name string) (SDSInfo, []byte, error) {
	s.check()
	info, err := s.Lookup(name)
	if err != nil {
		return info, nil, err
	}
	sp := obs.Begin(s.client.Proc, obs.LayerHDF, "sds_read").Bytes(info.DataLen).Attr("sds", name)
	defer sp.End()
	s.lent.N = info.DataLen
	s.f.LendAt(s.client, &s.lent, info.DataOff)
	return info, pfs.LentRange(s.lent.Pieces, info.DataOff, info.DataLen), nil
}

// List returns the container's datasets in file order.
func (s *SDFile) List() []SDSInfo {
	out := make([]SDSInfo, len(s.index))
	copy(out, s.index)
	return out
}

// Close releases the handle.
func (s *SDFile) Close() {
	s.check()
	s.f.Close(s.client)
}
