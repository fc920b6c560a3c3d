package enzo

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/amr"
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
			for _, p := range c.Req.Lend.Pieces {
				g.lends = append(g.lends, guard(c.File, p.Off, p.Bytes))
			}
		}
	})
}

// lentFrom counts the pieces lent from files whose names start with prefix.
func (g *writeGuard) lentFrom(prefix string) int {
	n := 0
	for _, l := range g.lends {
		if strings.HasPrefix(l.file, prefix) {
			n++
		}
	}
	return n
}

// fieldLends counts the pieces lent from file that lie inside a write that
// carried one of h's field arrays: the extents of the initial-condition
// fields a two-phase aggregator is lent, wherever the container put them.
func (g *writeGuard) fieldLends(file string, h *amr.Hierarchy) int {
	type span struct{ lo, hi int64 }
	var fields []span
	for _, w := range g.writes {
		if w.file != file {
			continue
		}
		for _, grid := range h.Grids {
			if slices.ContainsFunc(grid.Fields, func(f []byte) bool { return bytes.Equal(f, w.buf) }) {
				fields = append(fields, span{w.off, w.off + int64(len(w.buf))})
				break
			}
		}
	}
	n := 0
	for _, l := range g.lends {
		if l.file == file && slices.ContainsFunc(fields, func(s span) bool {
			return s.lo <= l.off && l.off+int64(len(l.buf)) <= s.hi
		}) {
			n++
		}
	}
	return n
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

// TestWriteOnceHolds runs the guard under every composition of backend × fs
// × codec × transport × store+integrity on Tiny/np=4, and under the refining
// three-dump castore run of the dedup benchmark: no buffer handed to pfs and
// no piece pfs lent may change — among them the initial-condition arrays
// the HDF4 root scatters views of and the chunks castore's Get lends — and
// the guard itself must be invisible to the run. Every uncompressed
// shared-file run of a two-phase backend must have lent its aggregators
// their extents of the initial conditions. A composition RunSpec.Validate
// refuses must be refused by Run before it writes a byte.
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

	var mu sync.Mutex
	lent := 0 // pieces lent over the matrix: the read-side half must be exercised
	t.Cleanup(func() {
		t.Logf("%d pieces lent over the matrix", lent)
		if lent == 0 && !t.Failed() {
			t.Error("no composition lent a piece: the guard checked no read")
		}
	})
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel() // runs share nothing but the read-only hierarchy cache
			spec := RunSpec{Machine: faultMachCfg(), FS: tc.fs, Procs: 4, Config: tc.cfg, Backend: tc.backend}
			if spec.Validate() != nil {
				var g writeGuard
				spec.Wrap = g.wrap
				if _, err := Run(spec); !errors.As(err, new(*SpecError)) || len(g.writes) > 0 {
					t.Fatalf("a refused composition ran: %v, %d writes", err, len(g.writes))
				}
				return
			}
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
			// The lent pieces the guard re-hashes are what the HDF4 root's
			// views are cut from and what castore's Get hands the decoder.
			if tc.backend == BackendHDF4 && g.lentFrom("ic_g") == 0 {
				t.Error("no initial-condition piece was lent: the guard saw none of the arrays the HDF4 root's views are cut from")
			}
			if tc.cfg.CAStore && tc.backend != BackendHDF4 && g.lentFrom("cas/") == 0 {
				t.Error("no chunk container piece was lent: the guard saw none of castore's reads")
			}
			// A two-phase initial read on a shared file lends its aggregators
			// their extents of the initial-condition fields; one that fell
			// back to reading into a buffer would lend none of them.
			if tc.fs != "local" && tc.cfg.Codec == "none" && !tc.cfg.CAStore && tc.backend != BackendHDF4 {
				ic := icRawFile()
				if tc.backend == BackendHDF5 {
					ic = icH5File()
				}
				if g.fieldLends(ic, hierEntryFor(tc.cfg).hierarchy()) == 0 {
					t.Errorf("no piece of a field array of %s was lent: no aggregator was lent an extent", ic)
				}
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
			c.Req.Lend.Pieces[0].Bytes[1] = 'X' // the violation, after the guard saw the piece
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

// TestHDF4TolerantReadBackLends: HDF4's SDS read-back lends in tolerant mode
// too (DESIGN.md §13, the second exception beside castore). A clean
// tolerant read-back of a dump hands out the arrays the dump stored — here
// the owners' own grids, which the file keeps by reference — and an absorbed
// failure, a container that does not open or an SDS that is not there,
// yields zeros of the requested size and marks the rank damaged.
func TestHDF4TolerantReadBackLends(t *testing.T) {
	var fields, lent, bad int
	body := func(r *mpi.Rank, _ pfs.FileSystem, s *Sim) {
		s.setup()
		s.readInitial()
		s.evolve()
		s.writeDump(0)
		io := s.io.(hdf4IO)
		s.tolerant = true
		for _, id := range slices.Sorted(maps.Keys(s.owned)) {
			sd := io.open(dumpGridFile(0, id))
			back := io.readGrid(sd, s.meta.Grids[id])
			closeSD(sd)
			for f, b := range back.Fields {
				fields++
				if &b[0] == &s.owned[id].Fields[f][0] {
					lent++
				}
			}
		}
		if s.damaged {
			bad++
		}
		for _, id := range slices.Sorted(maps.Keys(s.owned))[:1] {
			gm := s.meta.Grids[id]
			missing := io.readGrid(io.open("no_such_grid.hdf"), gm)
			sd := io.open(dumpGridFile(0, id))
			absent := io.readSDS(sd, "no_such_sds", 64)
			closeSD(sd)
			if !s.damaged || len(absent) != 64 || slices.ContainsFunc(absent, func(c byte) bool { return c != 0 }) {
				bad++
			}
			for _, b := range missing.Fields {
				if int64(len(b)) != gm.Cells()*amr.FieldElemSize || slices.ContainsFunc(b, func(c byte) bool { return c != 0 }) {
					bad++
				}
			}
		}
	}
	w := World{Procs: 4, Config: Tiny(), Backend: BackendHDF4, Result: &Result{}, Body: body}
	if _, err := Assemble(Allocation{Machine: machine.SP2(), FS: "gpfs"}, w); err != nil {
		t.Fatal(err)
	}
	if fields == 0 || lent != fields {
		t.Errorf("a clean tolerant read-back lent %d of %d field arrays", lent, fields)
	}
	if bad != 0 {
		t.Errorf("%d ranks or arrays: a clean read-back marked damaged, or an absorbed failure not zeros", bad)
	}
}
