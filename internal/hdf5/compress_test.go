package hdf5

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/compress"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
)

// zConfig is the default library configuration with a free compressor
// carrying codec c.
func zConfig(c compress.Codec) Config {
	cfg := DefaultConfig()
	cfg.Z = compress.NewCompressor(c, compress.CostModel{})
	return cfg
}

// TestCompressedDatasetRoundTrip writes each rank's partition through
// WriteCompressed and reads it back via per-slot and concatenated reads:
// bit-identical data, and the file must actually shrink.
func TestCompressedDatasetRoundTrip(t *testing.T) {
	const N = 12
	nprocs := 4
	pz, py, px := mpi.ProcGrid3D(nprocs)
	elem := 4
	// Smooth, compressible content: a repeating float-like pattern.
	global := make([]byte, N*N*N*elem)
	for i := range global {
		switch i % 4 {
		case 2:
			global[i] = 0x80
		case 3:
			global[i] = 0x3F
		}
	}
	codec, err := compress.ByName("lzss")
	if err != nil {
		t.Fatal(err)
	}

	parts := make([][]byte, nprocs)
	_, _ = runH5(t, nprocs, func(r *mpi.Rank, fs pfs.FileSystem) {
		h, err := Create(r, fs, "z.h5", zConfig(codec), mpiio.DefaultHints())
		if err != nil {
			panic(err)
		}
		ds, err := h.CreateDatasetZ("density", []int{N, N, N}, elem)
		if err != nil {
			panic(err)
		}
		sel := mpi.BlockDecompose3D([3]int{N, N, N}, pz, py, px, r.Rank(), elem)
		part := sel.GatherSub(global)
		parts[r.Rank()] = part
		ds.WriteCompressed(part)
		ds.Close()
		h.Close()

		// Fresh open: the index (headers + segment directory) comes from
		// the rank-0 scan, then each rank decodes its own segment.
		h2, err := OpenRead(r, fs, "z.h5", DefaultConfig(), mpiio.DefaultHints())
		if err != nil {
			panic(err)
		}
		ds2, err := h2.OpenDataset("density")
		if err != nil {
			panic(err)
		}
		if !ds2.Compressed() {
			panic("dataset lost its codec across close/open")
		}
		var got []byte
		if _, err := ds2.IssueReadCompressed(false, r.Rank(), &got); err != nil {
			panic(err)
		}
		if !bytes.Equal(got, part) {
			panic("decompressed segment differs from written partition")
		}
		var all []byte
		if _, err := ds2.IssueReadCompressed(false, -1, &all); err != nil {
			panic(err)
		}
		var want []byte
		for _, p := range parts {
			want = append(want, p...)
		}
		if !bytes.Equal(all, want) {
			panic("all-segment read differs from slot-order concatenation")
		}
		h2.Close()
	})
}

// TestCompressedDatasetShrinksFile compares the physical footprint of a
// compressed dataset against a plain one holding the same smooth bytes.
func TestCompressedDatasetShrinksFile(t *testing.T) {
	const N = 16
	elem := 4
	data := make([]byte, N*N*N*elem)
	for i := range data {
		if i%4 == 3 {
			data[i] = 0x3F
		}
	}
	codec, _ := compress.ByName("delta")
	size := func(z bool) int64 {
		var n int64
		_, fs := runH5(t, 1, func(r *mpi.Rank, fs pfs.FileSystem) {
			h, err := Create(r, fs, "f.h5", zConfig(codec), mpiio.DefaultHints())
			if err != nil {
				panic(err)
			}
			if z {
				ds, err := h.CreateDatasetZ("d", []int{N, N, N}, elem)
				if err != nil {
					panic(err)
				}
				ds.WriteCompressed(data)
				ds.Close()
			} else {
				ds, err := h.CreateDataset("d", []int{N, N, N}, elem)
				if err != nil {
					panic(err)
				}
				sel := mpi.BlockDecompose3D([3]int{N, N, N}, 1, 1, 1, 0, elem)
				ds.WriteHyperslab(sel, data)
				ds.Close()
			}
			h.Close()
		})
		snap := fs.Snapshot()
		n = int64(len(snap["f.h5"]))
		return n
	}
	plain, packed := size(false), size(true)
	if packed >= plain/2 {
		t.Fatalf("compressed file %d bytes, plain %d — expected at least 2x shrink", packed, plain)
	}
}

// TestCreateDatasetZValidation rejects a file with no compressor, and one
// whose compressor carries a nil or an inactive codec.
func TestCreateDatasetZValidation(t *testing.T) {
	none, _ := compress.ByName("none")
	for i, cfg := range []Config{DefaultConfig(), zConfig(nil), zConfig(none)} {
		runH5(t, 1, func(r *mpi.Rank, fs pfs.FileSystem) {
			h, err := Create(r, fs, "v.h5", cfg, mpiio.DefaultHints())
			if err != nil {
				panic(err)
			}
			if _, err := h.CreateDatasetZ("a", []int{4}, 4); err == nil {
				panic(fmt.Sprintf("config %d: CreateDatasetZ accepted a file without an active codec", i))
			}
			h.Close()
		})
	}
}

// TestCompressedCorruptionDetected flips a data byte of a stored segment:
// the chunk checksum must catch it on read.
func TestCompressedCorruptionDetected(t *testing.T) {
	const N = 8
	elem := 4
	data := make([]byte, N*N*N*elem)
	for i := range data {
		if i%4 == 1 {
			data[i] = 0x80
		}
	}
	codec, _ := compress.ByName("rle")
	_, fs := runH5(t, 1, func(r *mpi.Rank, fs pfs.FileSystem) {
		h, err := Create(r, fs, "c.h5", zConfig(codec), mpiio.DefaultHints())
		if err != nil {
			panic(err)
		}
		ds, err := h.CreateDatasetZ("d", []int{N, N, N}, elem)
		if err != nil {
			panic(err)
		}
		ds.WriteCompressed(data)
		ds.Close()
		h.Close()
	})
	files := fs.Snapshot()
	blob := files["c.h5"]
	blob[len(blob)-10] ^= 0xFF // inside the (last-written) segment data
	fs.Restore(files)
	runH5(t, 1, func(r *mpi.Rank, fs2 pfs.FileSystem) {
		h, err := OpenRead(r, fs, "c.h5", DefaultConfig(), mpiio.DefaultHints())
		if err != nil {
			panic(err)
		}
		ds, err := h.OpenDataset("d")
		if err != nil {
			panic(err)
		}
		var raw []byte
		if _, err := ds.IssueReadCompressed(false, 0, &raw); err == nil {
			panic("corrupted segment read back without error")
		}
		h.Close()
	})
}
