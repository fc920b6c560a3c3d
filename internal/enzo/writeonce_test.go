package enzo

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// writeGuard makes the write-once rule (DESIGN.md §13) checkable, in both
// directions: pfs keeps the buffer a write hands it, so nobody may change
// that buffer afterwards; and it lends its own bytes to a lend read, so
// nobody may change a lent piece either. The guard is a tap sink that
// remembers every buffer a successful write carried and every piece a
// successful lend read was handed, each with its CRC-32C at issue; changed
// re-hashes them after the run. (Keeping Req.Buf or the pieces is exactly
// what a recorder's sink must not do — this one is the check that the bytes
// below it stay what they were.)
type writeGuard struct {
	writes []guardedBuf
	lends  []guardedBuf
}

type guardedBuf struct {
	file string
	off  int64
	buf  []byte
	crc  uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func guard(file string, off int64, buf []byte) guardedBuf {
	return guardedBuf{file, off, buf, crc32.Checksum(buf, castagnoli)}
}

func (g *writeGuard) wrap(fs pfs.FileSystem) pfs.FileSystem {
	return pfs.Tap(fs, func(c pfs.Call) {
		switch {
		case c.Err != nil:
		case c.Req.Write && len(c.Req.Buf) > 0:
			g.writes = append(g.writes, guard(c.File, c.Req.Off, c.Req.Buf))
		case c.Req.Lend != nil:
			off := c.Req.Off
			for _, p := range c.Req.Lend.Pieces {
				g.lends = append(g.lends, guard(c.File, off, p))
				off += int64(len(p))
			}
		}
	})
}

// changed names every written buffer and every lent piece that no longer
// holds the bytes it had when it crossed the pfs boundary.
func (g *writeGuard) changed() []string {
	var out []string
	for _, w := range g.writes {
		if crc32.Checksum(w.buf, castagnoli) != w.crc {
			out = append(out, fmt.Sprintf("%s: %d bytes written at offset %d changed after the write", w.file, len(w.buf), w.off))
		}
	}
	for _, l := range g.lends {
		if crc32.Checksum(l.buf, castagnoli) != l.crc {
			out = append(out, fmt.Sprintf("%s: %d bytes lent at offset %d changed after the read", l.file, len(l.buf), l.off))
		}
	}
	return out
}

// refusedRows returns the names of the matrix rows that matrix_tiny.json
// pins as ending in a typed error.
func refusedRows(t *testing.T) map[string]bool {
	raw, err := os.ReadFile(filepath.Join("testdata", "matrix_tiny.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []matrixRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	refused := map[string]bool{}
	for _, r := range rows {
		if r.Err != "" {
			refused[r.Name] = true
		}
	}
	return refused
}

// TestWriteOnceHolds runs the guard under every composition of backend × fs
// × codec × transport × store+integrity on Tiny/np=4, and under the refining
// three-dump castore run of the dedup benchmark: no buffer handed to pfs and
// no piece pfs lent may change, and the guard itself must be invisible to
// the run. A composition
// the matrix golden pins as a typed refusal (scrub on node-local disks
// without the castore ends in a *RestartError) is skipped, by the golden's
// own row name.
func TestWriteOnceHolds(t *testing.T) {
	type row struct {
		name    string
		fs      string
		backend Backend
		cfg     Config
	}
	var rows []row
	for _, backend := range []Backend{BackendHDF4, BackendMPIIO, BackendMPIIOCB, BackendHDF5} {
		for _, fsKind := range []string{"pvfs", "gpfs", "xfs", "local"} {
			for _, codec := range []string{"none", "lzss"} {
				for _, async := range []bool{false, true} {
					for _, cas := range []bool{false, true} {
						for _, scrub := range []bool{false, true} {
							cfg := Tiny()
							cfg.Codec, cfg.AsyncIO = codec, async
							name := fmt.Sprintf("%s/%s/%s", backend, fsKind, codec)
							if async {
								name += "/async"
							}
							if cas {
								cfg.CAStore, cfg.Replicas = true, 2
								name += "/cas2"
							}
							if scrub {
								cfg.ScrubOnDump, cfg.Dumps, cfg.Generations = true, 2, 2
								name += "/scrub"
							}
							rows = append(rows, row{name, fsKind, backend, cfg})
						}
					}
				}
			}
		}
	}
	refine := Tiny()
	refine.Dumps, refine.Codec, refine.RefineCycles = 3, "lzss", 1
	refine.CAStore, refine.Replicas, refine.ScrubOnDump = true, 2, true
	rows = append(rows, row{"mpiio/pvfs/lzss/cas2/scrub/refine", "pvfs", BackendMPIIO, refine})

	refused := refusedRows(t)
	var mu sync.Mutex
	lent := 0 // pieces lent over the matrix: the read-side half must be exercised
	t.Cleanup(func() {
		t.Logf("%d pieces lent over the matrix", lent)
		if lent == 0 && !t.Failed() {
			t.Error("no composition lent a piece: the guard checked no read")
		}
	})
	for _, tc := range rows {
		if refused[tc.name] {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel() // runs share nothing but the read-only hierarchy cache
			spec := RunSpec{Machine: faultMachCfg(), FS: tc.fs, Procs: 4, Config: tc.cfg, Backend: tc.backend}
			bare, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			var g writeGuard
			spec.Wrap = g.wrap
			guarded, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(g.writes) == 0 {
				t.Fatal("the guard saw no write")
			}
			if bad := g.changed(); len(bad) > 0 {
				t.Errorf("%d of %d written buffers and lent pieces changed after they crossed the pfs boundary:\n%s",
					len(bad), len(g.writes)+len(g.lends), strings.Join(bad[:min(len(bad), 8)], "\n"))
			}
			mu.Lock()
			lent += len(g.lends)
			mu.Unlock()
			if !guarded.Verified {
				t.Error("restart did not verify")
			}
			if !reflect.DeepEqual(guarded, bare) {
				t.Errorf("the guard changed the run:\n got %+v\nwant %+v", guarded, bare)
			}
		})
	}
}

// TestGuardCatchesReuse breaks the rule on purpose — one staging buffer
// written at two offsets, refilled in between — and requires the guard to
// name the file and offset of the write whose bytes moved, and the file to
// show why the rule exists.
func TestGuardCatchesReuse(t *testing.T) {
	eng := sim.NewEngine()
	mach := machine.New(faultMachCfg())
	bare, err := MakeFS("pvfs", mach)
	if err != nil {
		t.Fatal(err)
	}
	var g writeGuard
	fs := g.wrap(bare)
	var first [4]byte
	mpi.NewWorld(eng, mach, 1, func(r *mpi.Rank) {
		c := pfs.Client{Proc: r.Proc(), Node: r.Node()}
		f, err := fs.Create(c, "reuse.dat")
		if err != nil {
			panic(err)
		}
		staging := []byte("AAAA")
		f.WriteAt(c, staging, 64)
		copy(staging, "BBBB") // the violation
		f.WriteAt(c, staging, 128)
		f.ReadAt(c, first[:], 64)
		f.Close(c)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	bad := g.changed()
	if len(bad) != 1 || !strings.Contains(bad[0], "reuse.dat") || !strings.Contains(bad[0], "offset 64") {
		t.Fatalf("guard reported %q, want exactly the write to reuse.dat at offset 64", bad)
	}
	if string(first[:]) != "BBBB" {
		t.Fatalf("the file kept %q at offset 64: the store no longer adopts write buffers, and this guard guards nothing", first)
	}
}

// TestGuardCatchesWriteThroughLend breaks the read-side rule on purpose — an
// overlay that writes one byte into the piece a lend read was handed — and
// requires the guard to name the file and offset of that read, and the file
// to show why the rule exists: the piece was the file's own bytes (and the
// writer's buffer, which the guard names too).
func TestGuardCatchesWriteThroughLend(t *testing.T) {
	eng := sim.NewEngine()
	mach := machine.New(faultMachCfg())
	bare, err := MakeFS("pvfs", mach)
	if err != nil {
		t.Fatal(err)
	}
	var g writeGuard
	fs := pfs.Tap(g.wrap(bare), func(c pfs.Call) {
		if c.Req.Lend != nil && c.Err == nil {
			c.Req.Lend.Pieces[0][1] = 'X' // the violation, after the guard saw the piece
		}
	})
	var after [4]byte
	mpi.NewWorld(eng, mach, 1, func(r *mpi.Rank) {
		c := pfs.Client{Proc: r.Proc(), Node: r.Node()}
		f, err := fs.Create(c, "lend.dat")
		if err != nil {
			panic(err)
		}
		f.WriteAt(c, []byte("AAAA"), 64)
		l := pfs.Lend{N: 4}
		f.LendAt(c, &l, 64)
		f.ReadAt(c, after[:], 64)
		f.Close(c)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	bad := g.changed()
	if len(bad) != 2 || !strings.Contains(bad[1], "lend.dat: 4 bytes lent at offset 64") {
		t.Fatalf("guard reported %q, want the write and the lend read of lend.dat at offset 64", bad)
	}
	if string(after[:]) != "AXAA" {
		t.Fatalf("the file kept %q at offset 64: the read was not lent the stored bytes, and this guard guards nothing", after)
	}
}
