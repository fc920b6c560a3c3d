package pfs_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/iotrace"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// The wrapper-transparency table: a wrapper that changes nothing must be
// invisible to virtual time, bytes, accounting and errors, for every model,
// every stack and every request shape. A new wrapper is tested by adding
// one row to stacks.

var models = []struct {
	name string
	make func() pfs.FileSystem
}{
	{"pvfs", func() pfs.FileSystem { return pfs.NewPVFS(machine.New(machine.ByName("chiba")), pfs.DefaultPVFS()) }},
	{"gpfs", func() pfs.FileSystem { return pfs.NewGPFS(machine.New(machine.ByName("sp2")), pfs.DefaultGPFS()) }},
	{"xfs", func() pfs.FileSystem { return pfs.NewXFS(machine.New(machine.ByName("origin2000")), pfs.DefaultXFS()) }},
	{"local", func() pfs.FileSystem { return pfs.NewLocalFS(machine.New(machine.ByName("chiba")), pfs.DefaultLocal()) }},
}

// tenant is the prefix the prefix stacks add; the bare reference run uses it
// spelled out, so both sides name the same file (and the same *DeviceError).
const tenant = "t/"

func neverFires(fs pfs.FileSystem) pfs.FileSystem {
	return faultfs.Wrap(fs, faultfs.Config{Mode: faultfs.CorruptWrite, FileSubstr: "no-such-file"})
}

var stacks = []struct {
	name     string
	wrap     func(fs pfs.FileSystem, tr *obs.Tracer) pfs.FileSystem
	prefixed bool
}{
	{"prefix", func(fs pfs.FileSystem, _ *obs.Tracer) pfs.FileSystem { return pfs.WrapPrefix(fs, tenant) }, true},
	{"obs", func(fs pfs.FileSystem, tr *obs.Tracer) pfs.FileSystem { return obs.WrapFS(fs, tr) }, false},
	{"iotrace", func(fs pfs.FileSystem, _ *obs.Tracer) pfs.FileSystem { return iotrace.Wrap(fs, iotrace.NewRecorder()) }, false},
	{"faultfs", func(fs pfs.FileSystem, _ *obs.Tracer) pfs.FileSystem { return neverFires(fs) }, false},
	{"prefix(obs(faultfs))", func(fs pfs.FileSystem, tr *obs.Tracer) pfs.FileSystem {
		return pfs.WrapPrefix(obs.WrapFS(neverFires(fs), tr), tenant)
	}, true},
}

// step is what one request of the script left behind.
type step struct {
	Shape string
	End   float64 // device completion (behind shapes), else the clock
	Clock float64 // caller's clock after the call
	Err   string
	Bytes []byte // what a read returned
}

// script drives the six shapes, healthy and past a deadline, over one file
// and returns what each request did. Data server 0 straggles when the
// volume has one, so the tight deadlines really expire there.
func script(t *testing.T, fs pfs.FileSystem, name string, tr *obs.Tracer) ([]step, pfs.Stats) {
	t.Helper()
	if inj, ok := pfs.As[pfs.StripeFaultInjector](fs); ok {
		inj.DegradeDataServer(0, 50)
	}
	data := make([]byte, 300<<10)
	for i := range data {
		data[i] = byte(i*7 + i>>9)
	}
	var steps []step
	eng := sim.NewEngine()
	eng.Spawn("client", func(p *sim.Proc) {
		if tr != nil {
			tr.Attach(p, 0)
		}
		c := pfs.Client{Proc: p, Node: 1}
		f, err := fs.Create(c, name)
		if err != nil {
			panic(err)
		}
		note := func(shape string, end float64, err error, buf []byte) {
			s := step{Shape: shape, End: end, Clock: p.Now(), Bytes: buf}
			if err != nil {
				s.Err = err.Error()
			}
			steps = append(steps, s)
		}
		buf := func() []byte { return make([]byte, len(data)) }
		const tight = 1e-4

		f.WriteAt(c, data, 0)
		note("WriteAt", p.Now(), nil, nil)
		end := pfs.WriteAtAsync(f, c, data, int64(len(data)))
		note("WriteAtAsync", end, nil, nil)
		p.AdvanceTo(end)
		note("WriteAtDeadline/met", p.Now(), pfs.WriteAtDeadline(f, c, data, 0, math.Inf(1)), nil)
		err = pfs.WriteAtDeadline(f, c, data[:100<<10], 4096, p.Now()+tight)
		note("WriteAtDeadline/missed", p.Now(), err, nil)
		f.WriteAt(c, nil, 0)
		note("WriteAt/empty", p.Now(), nil, nil)

		b := buf()
		f.ReadAt(c, b, 0)
		note("ReadAt", p.Now(), nil, b)
		b = buf()
		end = pfs.ReadAtAsync(f, c, b, 1000)
		note("ReadAtAsync", end, nil, b)
		p.AdvanceTo(end)
		b = buf()
		note("ReadAtDeadline/met", p.Now(), pfs.ReadAtDeadline(f, c, b, 0, math.Inf(1)), b)
		b = buf()
		err = pfs.ReadAtDeadline(f, c, b, 0, p.Now()+tight)
		note("ReadAtDeadline/missed", p.Now(), err, b)
		note("Size", float64(f.Size(c)), nil, nil)
		f.Close(c)
		note("Close", p.Now(), nil, nil)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return steps, fs.Stats()
}

func TestWrappersAreTransparent(t *testing.T) {
	for _, m := range models {
		want, wantStats := script(t, m.make(), tenant+"f", nil)
		wantPlain, wantPlainStats := script(t, m.make(), "f", nil)
		striped := m.name == "pvfs" || m.name == "gpfs"
		for _, s := range want {
			if missed := strings.HasSuffix(s.Shape, "/missed"); missed && (s.Err != "") != striped {
				t.Fatalf("%s: bare %s: err = %q, want a timeout exactly on striped volumes", m.name, s.Shape, s.Err)
			}
		}
		for _, st := range stacks {
			t.Run(m.name+"/"+st.name, func(t *testing.T) {
				tr := obs.NewTracer()
				got, gotStats := script(t, st.wrap(m.make(), tr), "f", tr)
				ref, refStats := wantPlain, wantPlainStats
				if st.prefixed {
					ref, refStats = want, wantStats
				}
				for i := range ref {
					if !reflect.DeepEqual(got[i], ref[i]) {
						g, r := got[i], ref[i]
						t.Errorf("%s differs from the bare model:\n got end=%v clock=%v err=%q bytes-equal=%v\nwant end=%v clock=%v err=%q",
							r.Shape, g.End, g.Clock, g.Err, bytes.Equal(g.Bytes, r.Bytes), r.End, r.Clock, r.Err)
					}
				}
				if gotStats != refStats {
					t.Errorf("Stats = %+v, bare model %+v", gotStats, refStats)
				}
			})
		}
	}
}

// TestBurstBufferWriteModes pins where each write mode issues its drain,
// against a twin that spells the tier out by hand on a bare pvfs plus a
// staging disk: a blocking (or deadline) write drains at the clock the local
// wait left, a behind write drains at issue, and in every mode the
// completion returned is the staging one. The read that follows settles the
// drain, so its completion dates the drain exactly.
func TestBurstBufferWriteModes(t *testing.T) {
	data := bytes.Repeat([]byte{0xB7}, 1<<20)
	for _, mode := range []pfs.Mode{pfs.Block, pfs.Behind, pfs.By} {
		t.Run(fmt.Sprint("mode=", mode), func(t *testing.T) {
			run := func(body func(p *sim.Proc, c pfs.Client, backing pfs.FileSystem) [3]float64) (out [3]float64) {
				backing := pfs.NewPVFS(machine.New(machine.ByName("chiba")), pfs.DefaultPVFS())
				eng := sim.NewEngine()
				eng.Spawn("c", func(p *sim.Proc) { out = body(p, pfs.Client{Proc: p, Node: 2}, backing) })
				if err := eng.Run(); err != nil {
					t.Fatal(err)
				}
				return out
			}
			req := pfs.Req{Write: true, Mode: mode, Buf: data, Deadline: math.Inf(1)}
			got := run(func(p *sim.Proc, c pfs.Client, backing pfs.FileSystem) [3]float64 {
				f, _ := pfs.WrapBurstBuffer(backing, pfs.DefaultBurst()).Create(c, "dump")
				end, err := f.Do(c, req)
				if err != nil {
					panic(err)
				}
				after := p.Now()
				f.ReadAt(c, make([]byte, len(data)), 0)
				return [3]float64{end, after, p.Now()}
			})
			want := run(func(p *sim.Proc, c pfs.Client, backing pfs.FileSystem) [3]float64 {
				f, _ := backing.Create(c, "dump")
				staging := pfs.NewDisk("bb/node2", pfs.DefaultBurst().Disk)
				localEnd := staging.AccessClass(p.Now(), 0, int64(len(data)), p.Class())
				if mode != pfs.Behind {
					p.AdvanceTo(localEnd)
				}
				drain := pfs.WriteAtAsync(f, c, data, 0)
				after := p.Now()
				p.AdvanceTo(drain)
				f.ReadAt(c, make([]byte, len(data)), 0)
				return [3]float64{localEnd, after, p.Now()}
			})
			if got != want {
				t.Errorf("[completion, clock after write, clock after read] = %v, hand-built tier %v", got, want)
			}
		})
	}
}

// serverLog records which servers served something.
type serverLog map[string]bool

func (l serverLog) ObserveServe(s *sim.Server, arrive, start, end float64) { l[s.Name()] = true }

// TestCapabilitiesThroughTheSpine: wrappers implement only the capabilities
// they change; the rest are found by walking Unwrap, and Observe visits
// every layer that owns servers.
func TestCapabilitiesThroughTheSpine(t *testing.T) {
	model := pfs.NewPVFS(machine.New(machine.ByName("chiba")), pfs.DefaultPVFS())
	bb := pfs.WrapBurstBuffer(model, pfs.DefaultBurst())
	stack := pfs.WrapPrefix(obs.WrapFS(neverFires(bb), obs.NewTracer()), tenant)

	if sv, ok := pfs.As[pfs.StripedVolume](stack); !ok || sv.StripeUnit() != model.StripeUnit() {
		t.Errorf("As[StripedVolume] through the stack = %v, %v", sv, ok)
	}
	inj, ok := pfs.As[pfs.StripeFaultInjector](stack)
	if !ok {
		t.Fatal("As[StripeFaultInjector] not found through the stack")
	}
	inj.FailDataServerAt(2, 7.5)
	if rv, ok := pfs.As[pfs.ReplicaVolume](stack); !ok || rv.DataServerFailAt(2) != 7.5 {
		t.Errorf("As[ReplicaVolume] through the stack did not see the injected failure")
	}
	if pfs.Base(stack) != pfs.FileSystem(model) {
		t.Errorf("Base(stack) = %v, want the pvfs model", pfs.Base(stack))
	}
	if _, ok := pfs.As[pfs.CodecReporter](bb); ok {
		t.Error("As[CodecReporter] found a receiver in a stack without a recorder")
	}

	seen := serverLog{}
	pfs.Observe(stack, seen)
	eng := sim.NewEngine()
	eng.Spawn("c", func(p *sim.Proc) {
		c := pfs.Client{Proc: p, Node: 3}
		f, _ := stack.Create(c, "dump")
		f.WriteAt(c, make([]byte, 1<<20), 0)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"pvfs/iod1/disk", "pvfs/mgr", "bb/node3"} {
		if !seen[name] {
			t.Errorf("Observe did not reach server %q (saw %v)", name, seen)
		}
	}
}

// TestRecorderOnTheSpine: iotrace.Wrap adds one capability to the tap — it
// receives the codec accounting — and hides none. Through
// prefix(iotrace(model)) As[CodecReporter] finds the recorder, with the file
// name prefixed; the walk goes on below it (Unwrap) and a placed create still
// places (CreatePlaced).
func TestRecorderOnTheSpine(t *testing.T) {
	model := pfs.NewPVFS(machine.New(machine.ByName("chiba")), pfs.DefaultPVFS())
	rec := iotrace.NewRecorder()
	stack := pfs.WrapPrefix(iotrace.Wrap(model, rec), tenant)

	cr, ok := pfs.As[pfs.CodecReporter](stack)
	if !ok {
		t.Fatal("As[CodecReporter] did not find the recorder through prefix(iotrace(model))")
	}
	cr.RecordCodecBytes("f", true, 100, 25)
	want := []iotrace.CodecFileStats{{File: tenant + "f", LogicalWritten: 100, PhysicalWritten: 25}}
	if got := rec.CodecStats(); !reflect.DeepEqual(got, want) {
		t.Errorf("CodecStats = %+v, want %+v", got, want)
	}
	if pfs.Base(stack) != pfs.FileSystem(model) {
		t.Errorf("Base(stack) = %v, want the pvfs model", pfs.Base(stack))
	}
	if _, ok := pfs.As[pfs.StripedVolume](stack); !ok {
		t.Error("As[StripedVolume] not found below the recorder")
	}

	seen := serverLog{}
	pfs.Observe(stack, seen)
	eng := sim.NewEngine()
	eng.Spawn("c", func(p *sim.Proc) {
		c := pfs.Client{Proc: p, Node: 3}
		f, _ := pfs.CreatePlacedOn(stack, c, "obj", 2)
		f.WriteAt(c, make([]byte, 1<<20), 0)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for name := range seen {
		if strings.HasSuffix(name, "/disk") && name != "pvfs/iod2/disk" {
			t.Errorf("placed create on server 2 through the recorder wrote to %s", name)
		}
	}
	if evs := rec.Events(); len(evs) != 2 || evs[0].Op != iotrace.OpCreate || evs[0].File != tenant+"obj" || evs[1].Bytes != 1<<20 {
		t.Errorf("recorder saw %+v, want the placed create and the write", evs)
	}
}

// TestSinksAgree: obs and iotrace are two sinks of one tap, so the same
// request stream — the six shapes, healthy and past a deadline, on each model
// — leaves the same calls in both: the recorder's events and the tracer's
// pfs-layer spans match call for call, the per-file counters add up to the
// event counts, and a behind write's hidden time is the file's
// WriteBehindTime.
func TestSinksAgree(t *testing.T) {
	for _, m := range models {
		t.Run(m.name, func(t *testing.T) {
			tr, rec := obs.NewTracer(), iotrace.NewRecorder()
			script(t, iotrace.Wrap(obs.WrapFS(m.make(), tr), rec), "f", tr)

			var spans []obs.Span
			for _, sp := range tr.Spans() {
				if sp.Layer == obs.LayerPFS {
					spans = append(spans, sp)
				}
			}
			evs := rec.Events()
			if len(spans) != len(evs) {
				t.Fatalf("%d pfs spans, %d events", len(spans), len(evs))
			}
			type tally struct{ Creates, Opens, Closes, Reads, Writes, BytesRead, BytesWritten, Timeouts int64 }
			var want, got tally
			var hidden, behind float64
			for i, ev := range evs {
				if sp := spans[i]; sp.Name != ev.Op.String() || sp.Start != ev.Start || sp.End != ev.End {
					t.Errorf("call %d: span %s [%v,%v], event %s [%v,%v]", i, sp.Name, sp.Start, sp.End, ev.Op, ev.Start, ev.End)
				}
				missed := slices.Contains(spans[i].Attrs, obs.Attr{Key: "timeout", Value: "1"})
				if missed {
					want.Timeouts++
					if ev.Bytes != 0 {
						t.Errorf("call %d: missed deadline recorded with %d bytes", i, ev.Bytes)
					}
				} else if spans[i].Bytes != ev.Bytes {
					t.Errorf("call %d: span moved %d bytes, event %d", i, spans[i].Bytes, ev.Bytes)
				}
				switch ev.Op {
				case iotrace.OpCreate:
					want.Creates++
				case iotrace.OpOpen:
					want.Opens++
				case iotrace.OpClose:
					want.Closes++
				case iotrace.OpRead:
					if !missed {
						want.Reads++
						want.BytesRead += ev.Bytes
					}
				case iotrace.OpWrite:
					if !missed {
						want.Writes++
						want.BytesWritten += ev.Bytes
						hidden += ev.Hidden()
					}
				}
			}
			for _, fc := range tr.Counters() {
				got.Creates += fc.Creates
				got.Opens += fc.Opens
				got.Closes += fc.Closes
				got.Reads += fc.Reads
				got.Writes += fc.Writes
				got.BytesRead += fc.BytesRead
				got.BytesWritten += fc.BytesWritten
				got.Timeouts += fc.Timeouts
				behind += fc.WriteBehindTime
			}
			if got != want {
				t.Errorf("counters sum to %+v, events to %+v", got, want)
			}
			if striped := m.name == "pvfs" || m.name == "gpfs"; striped && want.Timeouts != 2 {
				t.Errorf("Timeouts = %d, want the script's two missed deadlines", want.Timeouts)
			}
			if hidden <= 0 || behind != hidden {
				t.Errorf("WriteBehindTime = %v, the behind write's Completion-End = %v", behind, hidden)
			}
		})
	}
}
