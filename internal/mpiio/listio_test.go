package mpiio

import (
	"bytes"
	"testing"

	"repro/internal/mpi"
	"repro/internal/pfs"
)

// listFile builds the reference file image for a scattered vector: bg
// everywhere, the entries' bytes (taken from data in list order) patched
// in at their offsets.
func listFile(bg []byte, offs, lens []int64, data []byte) []byte {
	out := append([]byte(nil), bg...)
	var b int64
	for i := range offs {
		copy(out[offs[i]:offs[i]+lens[i]], data[b:b+lens[i]])
		b += lens[i]
	}
	return out
}

func TestWriteListScatteredTruth(t *testing.T) {
	// A hole-ridden unsorted vector: the named ranges must land exactly,
	// every hole byte must keep its prior contents, and the result must not
	// depend on list order.
	const fileSize = 4 << 10
	bg := pattern(7, fileSize)
	offs := []int64{3000, 100, 1024, 0, 2048}
	lens := []int64{500, 200, 128, 64, 256}
	var total int64
	for _, n := range lens {
		total += n
	}
	data := pattern(3, int(total))

	_, fs := runIO(t, 1, func(r *mpi.Rank, fs pfs.FileSystem) {
		f, err := Open(r, fs, "scatter", ModeCreate, DefaultHints())
		if err != nil {
			panic(err)
		}
		f.WriteAt(bg, 0)
		f.WriteList(offs, lens, data)
		f.Close()
	})
	got := readWholeFile(t, fs, "scatter", fileSize)
	if want := listFile(bg, offs, lens, data); !bytes.Equal(got, want) {
		t.Fatal("scattered WriteList produced wrong file contents")
	}
}

func TestReadListScatteredTruth(t *testing.T) {
	// ReadList must return exactly the named bytes back to back in list
	// order — including duplicate and out-of-order offsets.
	const fileSize = 4 << 10
	bg := pattern(11, fileSize)
	offs := []int64{2000, 16, 2000, 512}
	lens := []int64{100, 32, 100, 256}
	var total int64
	for _, n := range lens {
		total += n
	}
	want := make([]byte, 0, total)
	for i := range offs {
		want = append(want, bg[offs[i]:offs[i]+lens[i]]...)
	}

	got := make([]byte, total)
	runIO(t, 1, func(r *mpi.Rank, fs pfs.FileSystem) {
		f, err := Open(r, fs, "src", ModeCreate, DefaultHints())
		if err != nil {
			panic(err)
		}
		f.WriteAt(bg, 0)
		f.IssueReadList(false, offs, lens, got)
		f.Close()
	})
	if !bytes.Equal(got, want) {
		t.Fatal("scattered ReadList returned wrong bytes")
	}
}

func TestListCoalescingSingleRequest(t *testing.T) {
	// Exactly file-adjacent entries must merge into one device request even
	// when the vector arrives out of order, and a vector with holes must
	// issue one request per run — never one per entry.
	cases := []struct {
		name string
		offs []int64
		lens []int64
		want int64 // device write requests
	}{
		{"adjacent", []int64{0, 64, 128, 192}, []int64{64, 64, 64, 64}, 1},
		{"adjacent-unsorted", []int64{128, 0, 192, 64}, []int64{64, 64, 64, 64}, 1},
		{"two-runs", []int64{0, 64, 1024, 1088}, []int64{64, 64, 64, 64}, 2},
		{"all-holes", []int64{0, 256, 512}, []int64{64, 64, 64}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var total int64
			for _, n := range tc.lens {
				total += n
			}
			data := pattern(5, int(total))
			var reqs int64
			_, fs := runIO(t, 1, func(r *mpi.Rank, fs pfs.FileSystem) {
				f, err := Open(r, fs, "co", ModeCreate, DefaultHints())
				if err != nil {
					panic(err)
				}
				base := fs.Stats().WriteReqs
				f.WriteList(tc.offs, tc.lens, data)
				reqs = fs.Stats().WriteReqs - base
				f.Close()
			})
			if reqs != tc.want {
				t.Fatalf("WriteList issued %d device requests, want %d", reqs, tc.want)
			}
			// The merged requests must still land the right bytes.
			end := int64(0)
			for i := range tc.offs {
				if e := tc.offs[i] + tc.lens[i]; e > end {
					end = e
				}
			}
			got := readWholeFile(t, fs, "co", end)
			want := listFile(make([]byte, end), tc.offs, tc.lens, data)
			if !bytes.Equal(got, want) {
				t.Fatal("coalesced WriteList produced wrong file contents")
			}
		})
	}
}

func TestReadListTransfersNoHoleBytes(t *testing.T) {
	// The point of list-I/O over data sieving: a scattered read moves only
	// the requested bytes. The device-level read volume must equal the sum
	// of entry lengths even when the vector spans a large hole-ridden
	// extent.
	offs := []int64{0, 1 << 20, 2 << 20}
	lens := []int64{4 << 10, 4 << 10, 4 << 10}
	var total int64
	for _, n := range lens {
		total += n
	}
	buf := make([]byte, total)
	var moved int64
	runIO(t, 1, func(r *mpi.Rank, fs pfs.FileSystem) {
		f, err := Open(r, fs, "holes", ModeCreate, DefaultHints())
		if err != nil {
			panic(err)
		}
		f.WriteAt(pattern(9, int(2<<20+4<<10)), 0)
		base := fs.Stats().BytesRead
		f.IssueReadList(false, offs, lens, buf)
		moved = fs.Stats().BytesRead - base
		f.Close()
	})
	if moved != total {
		t.Fatalf("ReadList moved %d device bytes for %d requested (amplification)", moved, total)
	}
}

func TestIwriteListMatchesBlocking(t *testing.T) {
	// The nonblocking variant must land byte-identical contents; Wait
	// settles the clock.
	offs := []int64{512, 0, 2048}
	lens := []int64{128, 256, 64}
	data := pattern(13, 448)
	run := func(async bool) (float64, pfs.FileSystem) {
		ms, fs := runIO(t, 1, func(r *mpi.Rank, fs pfs.FileSystem) {
			f, err := Open(r, fs, "iw", ModeCreate, DefaultHints())
			if err != nil {
				panic(err)
			}
			if async {
				f.IssueWriteList(true, offs, lens, data).Wait()
			} else {
				f.WriteList(offs, lens, data)
			}
			f.Close()
		})
		return ms, fs
	}
	_, bfs := run(false)
	_, afs := run(true)
	want := readWholeFile(t, bfs, "iw", 2112)
	got := readWholeFile(t, afs, "iw", 2112)
	if !bytes.Equal(got, want) {
		t.Fatal("IwriteList and WriteList produced different file contents")
	}
}

func TestIreadListMatchesBlocking(t *testing.T) {
	offs := []int64{1024, 64, 3000}
	lens := []int64{256, 32, 512}
	bg := pattern(17, 4<<10)
	read := func(async bool) []byte {
		buf := make([]byte, 800)
		runIO(t, 1, func(r *mpi.Rank, fs pfs.FileSystem) {
			f, err := Open(r, fs, "ir", ModeCreate, DefaultHints())
			if err != nil {
				panic(err)
			}
			f.WriteAt(bg, 0)
			if async {
				f.IssueReadList(true, offs, lens, buf).Wait()
			} else {
				f.IssueReadList(false, offs, lens, buf)
			}
			f.Close()
		})
		return buf
	}
	if !bytes.Equal(read(true), read(false)) {
		t.Fatal("IreadList and ReadList returned different bytes")
	}
}

func TestWriteListDeadServerSurfacesIOError(t *testing.T) {
	// A data server that dies under a scattered write must surface the same
	// typed *IOError as every other retry-exhausted path.
	pol := RetryPolicy{Enabled: true, Timeout: 1e-3, MaxAttempts: 3, Backoff: 1e-3, Multiplier: 2}
	offs := []int64{0, 128 << 10, 256 << 10}
	lens := []int64{64 << 10, 64 << 10, 64 << 10}
	data := pattern(1, 192<<10)
	_, err := runFaultPVFS(1, func(inj pfs.StripeFaultInjector) {
		inj.FailDataServerAt(0, 0)
	}, func(r *mpi.Rank, fs pfs.FileSystem) {
		f, _ := Open(r, fs, "x", ModeCreate, retryHints(pol))
		f.WriteList(offs, lens, data)
		f.Close()
	})
	if err == nil {
		t.Fatal("WriteList to a dead server succeeded")
	}
	ioe, ok := ExtractIOError(err)
	if !ok {
		t.Fatalf("error is not an IOError: %v", err)
	}
	if ioe.Op != "write" || ioe.File != "x" || ioe.Attempts != 3 {
		t.Fatalf("IOError fields wrong: %+v", ioe)
	}
}

func TestListValidationPanics(t *testing.T) {
	cases := []struct {
		name string
		offs []int64
		lens []int64
		nbuf int
	}{
		{"length-mismatch", []int64{0, 64}, []int64{64}, 64},
		{"negative-length", []int64{0}, []int64{-1}, 0},
		{"negative-offset", []int64{-5}, []int64{64}, 64},
		{"buffer-short", []int64{0, 128}, []int64{64, 64}, 64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid vector did not panic")
				}
			}()
			listEntries("test", tc.offs, tc.lens, tc.nbuf)
		})
	}
}

func TestWriteListOverlapPanics(t *testing.T) {
	runIO(t, 1, func(r *mpi.Rank, fs pfs.FileSystem) {
		f, err := Open(r, fs, "ov", ModeCreate, DefaultHints())
		if err != nil {
			panic(err)
		}
		defer func() {
			if recover() == nil {
				panic("overlapping WriteList entries did not panic")
			}
		}()
		f.WriteList([]int64{0, 32}, []int64{64, 64}, make([]byte, 128))
	})
}

func TestZeroLengthEntriesDropped(t *testing.T) {
	ents, total := listEntries("test", []int64{0, 100, 200}, []int64{64, 0, 32}, 96)
	if len(ents) != 2 || total != 96 {
		t.Fatalf("zero-length entry survived: %d entries, total %d", len(ents), total)
	}
}
