package pfs

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/golden"
	"repro/internal/machine"
	"repro/internal/sim"
)

// newModel builds the named model with its default calibration.
func newModel(name string, mach *machine.Machine) FileSystem {
	switch name {
	case "xfs":
		return NewXFS(mach, DefaultXFS())
	case "gpfs":
		return NewGPFS(mach, DefaultGPFS())
	case "pvfs":
		return NewPVFS(mach, DefaultPVFS())
	}
	return NewLocalFS(mach, DefaultLocal())
}

// scriptBytes returns n bytes of a pattern seeded by seed: a fresh buffer per
// write, since a write hands its buffer to the file.
func scriptBytes(seed, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(int64(seed))).Read(b)
	return b
}

// runModelScript drives one fixed script through the named model and returns
// what every step left behind: the caller's clock and the returned
// completion as float bits, the error, and the volume's Stats. Client a
// (node 0) creates a file, writes and reads it in every mode at two sizes,
// lends a read, makes a By read that outlasts its deadline (behind a failed
// data server where the model has one), closes and opens a missing file.
// Client b (node 1) starts once a is done: it rewrites a's first token
// block, creates a placed file and re-places a's, then snapshots the volume,
// restores it into a fresh one and writes and reads there again.
func runModelScript(t *testing.T, model string) []byte {
	var out bytes.Buffer
	mach := testMachine()
	fs := newModel(model, mach)
	const off = 12_345
	step := func(fs FileSystem, p *sim.Proc, what string, end float64, err error) {
		fmt.Fprintf(&out, "%s %-28s clock=%016x end=%016x err=%v stats=%+v\n",
			model, what, math.Float64bits(p.Now()), math.Float64bits(end), err, fs.Stats())
	}
	meta := func(fs FileSystem, p *sim.Proc, what string, err error) { step(fs, p, what, p.Now(), err) }
	eng := sim.NewEngine()
	eng.Spawn("a", func(p *sim.Proc) {
		c := Client{Proc: p, Node: 0}
		f, err := fs.Create(c, "f")
		meta(fs, p, "create f", err)
		seed := 0
		for _, n := range []int{60 << 10, 1 << 20} {
			for _, write := range []bool{true, false} {
				for _, m := range []struct {
					name string
					mode Mode
				}{{"Block", Block}, {"Behind", Behind}, {"By", By}} {
					seed++
					r := Req{Write: write, Mode: m.mode, Off: off, Buf: make([]byte, n)}
					if write {
						r.Buf = scriptBytes(seed, n)
					}
					if m.mode == By {
						r.Deadline = p.Now() + 60
					}
					end, err := f.Do(c, r)
					step(fs, p, fmt.Sprintf("%s %s %d", r.Op(), m.name, n), end, err)
					if !write {
						fmt.Fprintf(&out, "%s   read sha256=%x\n", model, sha256.Sum256(r.Buf))
					}
				}
			}
		}
		l := &Lend{N: 1 << 20}
		end, err := f.Do(c, Req{Lend: l, Off: off})
		step(fs, p, "lend 1048576", end, err)
		fmt.Fprintf(&out, "%s   lent pieces=%d sha256=%x\n", model, len(l.Pieces), sha256.Sum256(LentRange(l.Pieces, off, l.N)))
		if fi, ok := As[StripeFaultInjector](fs); ok {
			fi.FailDataServerAt(1, p.Now())
		}
		end, err = f.Do(c, Req{Mode: By, Buf: make([]byte, 1<<20), Off: off, Deadline: p.Now() + 1e-3})
		step(fs, p, "read By failed 1048576", end, err)
		f.Close(c)
		meta(fs, p, "close f", nil)
		_, err = fs.Open(c, "missing")
		meta(fs, p, "open missing", err)
	})
	eng.Spawn("b", func(p *sim.Proc) {
		p.AdvanceTo(1000)
		c := Client{Proc: p, Node: 1}
		f, err := fs.Open(c, "f")
		meta(fs, p, "open f", err)
		end, err := f.Do(c, Req{Write: true, Buf: scriptBytes(100, 4096), Off: off})
		step(fs, p, "rewrite token block 4096", end, err)
		g, err := CreatePlacedOn(fs, c, "p", 3)
		meta(fs, p, "create placed p", err)
		end, err = g.Do(c, Req{Write: true, Buf: scriptBytes(101, 60<<10), Off: off})
		step(fs, p, "write placed 61440", end, err)
		if pr, ok := As[PlacementRestorer](fs); ok {
			fmt.Fprintf(&out, "%s   place existing f=%v missing=%v\n", model, pr.PlaceExisting("f", 5), pr.PlaceExisting("missing", 5))
		}
		buf := make([]byte, 4096)
		end, err = f.Do(c, Req{Buf: buf, Off: off})
		step(fs, p, "read placed f 4096", end, err)
		fmt.Fprintf(&out, "%s   read sha256=%x\n", model, sha256.Sum256(buf))

		snap := fs.Snapshot()
		names := make([]string, 0, len(snap))
		for name := range snap {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			fmt.Fprintf(&out, "%s   snapshot %s len=%d sha256=%x\n", model, name, len(snap[name]), sha256.Sum256(snap[name]))
		}
		fresh := newModel(model, mach)
		fresh.Restore(snap)
		meta(fresh, p, "restore", nil)
		h, err := fresh.Open(c, "f")
		meta(fresh, p, "open restored f", err)
		fmt.Fprintf(&out, "%s   restored exists f=%v p=%v size=%d\n", model, fresh.Exists("f"), fresh.Exists("p"), h.Size(c))
		end, err = h.Do(c, Req{Write: true, Buf: scriptBytes(102, 1<<20), Off: 3 * off})
		step(fresh, p, "write restored 1048576", end, err)
		buf = make([]byte, 1<<20)
		end, err = h.Do(c, Req{Buf: buf, Off: off})
		step(fresh, p, "read restored 1048576", end, err)
		fmt.Fprintf(&out, "%s   read sha256=%x\n", model, sha256.Sum256(buf))
		h.Close(c)
		meta(fresh, p, "close restored f", nil)
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("%s: %v", model, err)
	}
	return out.Bytes()
}

// TestModelScriptGolden pins what one fixed script costs and leaves on each
// model — every step's clock and completion as float bits, its error and
// the volume's Stats, the bytes read back, a snapshot and the state of the
// files restored from it — so a change to how the models share their
// namespace, handle or data servers shows as a changed line.
func TestModelScriptGolden(t *testing.T) {
	var out bytes.Buffer
	for _, model := range []string{"xfs", "gpfs", "pvfs", "local"} {
		out.Write(runModelScript(t, model))
	}
	golden.Check(t, "testdata/models.golden", out.Bytes())
}

// BenchmarkDo is the cost of one request on each model, per mode and size:
// one op is a write and then a read of the same unaligned extent through
// the handle's Do, on a volume whose servers queue every op behind the
// last. A request allocates nothing on any model in either mode.
func BenchmarkDo(b *testing.B) {
	for _, model := range []string{"xfs", "gpfs", "pvfs", "local"} {
		for _, m := range []struct {
			name string
			mode Mode
		}{{"Block", Block}, {"Behind", Behind}} {
			for _, n := range []int{60 << 10, 1 << 20} {
				b.Run(fmt.Sprintf("%s/%s/%dKiB", model, m.name, n>>10), func(b *testing.B) {
					fs := newModel(model, testMachine())
					data, buf := scriptBytes(1, n), make([]byte, n)
					b.ReportAllocs()
					eng := sim.NewEngine()
					eng.Spawn("c", func(p *sim.Proc) {
						c := Client{Proc: p, Node: 0}
						f, err := fs.Create(c, "f")
						if err != nil {
							panic(err)
						}
						w := Req{Write: true, Mode: m.mode, Buf: data, Off: 12_345}
						r := Req{Mode: m.mode, Buf: buf, Off: 12_345}
						f.Do(c, w) // the file's first extent and GPFS's first token
						b.ResetTimer()
						for range b.N {
							f.Do(c, w)
							f.Do(c, r)
						}
						b.StopTimer()
					})
					if err := eng.Run(); err != nil {
						b.Fatal(err)
					}
				})
			}
		}
	}
}
