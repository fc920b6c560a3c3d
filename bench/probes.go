package main

import (
	"fmt"
	"time"

	"repro/internal/amr"
	"repro/internal/castore"
	"repro/internal/compress"
	"repro/internal/enzo"
	"repro/internal/hdf5"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/tenant"
)

// The probes time one layer each, from outside, through its exported
// functions. Every probe is a fixed amount of work; host timings are the
// median of probeReps runs (fewer where one run takes seconds — the n
// column says how many) and are context for the workload metrics, not
// gates. Counts come from Engine.Events and repeat exactly.
const probeReps = 5

// probeScale shrinks the probes under -quick.
type probeScale struct {
	reps  int
	np    int // the "np64" probes
	iters int // calls per timed loop
	dim   int // cube edge of the collective-I/O probes
	mib   int // MiB per pfs stream
}

func scaleFor(quick bool) probeScale {
	if quick {
		return probeScale{reps: 1, np: 8, iters: 4, dim: 16, mib: 4}
	}
	return probeScale{reps: probeReps, np: 64, iters: 20, dim: 64, mib: 256}
}

// prober collects probe results into the workload report.
type prober struct {
	rep *workloadReport
	rec *recorder
}

// timed runs f reps times under a span and returns what f reported each
// time.
func (p prober) timed(name string, reps int, f func() float64) []float64 {
	id := p.rec.begin("probe:" + name)
	defer p.rec.end(id)
	vals := make([]float64, reps)
	for i := range vals {
		vals[i] = f()
	}
	return vals
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench: probe failed: %v", err))
	}
}

// world runs body on np ranks of a fresh machine.
func world(mc machine.Config, np int, body func(r *mpi.Rank)) {
	eng := sim.NewEngine()
	mpi.NewWorld(eng, machine.New(mc), np, body)
	must(eng.Run())
}

// bracket measures a region every rank enters and leaves through a
// barrier: rank 0 reads the host clock and the engine's dispatch count on
// both sides. The engine runs one rank at a time, so the two readings
// bound the region's whole cost. An empty bracket gives the dispatches of
// the closing barrier, to be taken off a count.
type bracket struct {
	t0     time.Time
	e0     int64
	hostS  float64
	events int64
}

func (b *bracket) around(r *mpi.Rank, region func()) {
	b.enter(r)
	region()
	b.leave(r)
}

func (b *bracket) enter(r *mpi.Rank) {
	r.Barrier()
	if r.Rank() == 0 {
		b.t0, b.e0 = time.Now(), r.World().Engine().Events()
	}
}

func (b *bracket) leave(r *mpi.Rank) {
	r.Barrier()
	if r.Rank() == 0 {
		b.hostS, b.events = time.Since(b.t0).Seconds(), r.World().Engine().Events()-b.e0
	}
}

func runProbes(rep *workloadReport, rec *recorder, o options) {
	p := prober{rep, rec}
	sc := scaleFor(o.quick)
	p.sim(sc)
	p.mpi(sc)
	p.mpiio(sc)
	p.hdf5()
	p.pfs(sc, o.seed)
	field := p.amr(sc, o)
	p.compress(sc, field)
	p.castore(sc, field)
	p.obs(sc)
	p.tenant(o)
}

func (p prober) sim(sc probeScale) {
	const procs = 64
	advances := 200 * sc.iters
	p.rep.set("sim.dispatch_ns", p.timed("sim.dispatch", sc.reps, func() float64 {
		eng := sim.NewEngine()
		for i := 0; i < procs; i++ {
			step := 1e-6 * float64(1+i%7) // unequal steps, so clocks interleave
			eng.Spawn(fmt.Sprintf("p%d", i), func(pr *sim.Proc) {
				for k := 0; k < advances; k++ {
					pr.Advance(step)
				}
			})
		}
		t := time.Now()
		must(eng.Run())
		return float64(time.Since(t).Nanoseconds()) / float64(eng.Events())
	}))

	rounds := 2000 * sc.iters
	p.rep.set("sim.handoff_ns", p.timed("sim.handoff", sc.reps, func() float64 {
		eng := sim.NewEngine()
		var a, b *sim.Proc
		a = eng.Spawn("ping", func(pr *sim.Proc) {
			for k := 0; k < rounds; k++ {
				pr.Block("ping")
				eng.Wake(b, pr.Now())
			}
		})
		b = eng.Spawn("pong", func(pr *sim.Proc) {
			for k := 0; k < rounds; k++ {
				eng.Wake(a, pr.Now())
				pr.Block("pong")
			}
		})
		t := time.Now()
		must(eng.Run())
		return float64(time.Since(t).Nanoseconds()) / float64(eng.Events())
	}))

	serves := 50000 * sc.iters
	serve := func(fair bool) func() float64 {
		return func() float64 {
			srv := sim.NewServer("probe")
			if fair {
				srv.SetPolicy(sim.FairQueue(nil))
			}
			t := time.Now()
			for k := 0; k < serves; k++ {
				srv.ServeClass(k%4, float64(k)*1e-6, 1.5e-6) // arrivals outpace service: a queue forms
			}
			return float64(time.Since(t).Nanoseconds()) / float64(serves)
		}
	}
	p.rep.set("sim.serve_fifo_ns", p.timed("sim.serve_fifo", sc.reps, serve(false)))
	p.rep.set("sim.serve_fair_ns", p.timed("sim.serve_fair", sc.reps, serve(true)))
}

func (p prober) mpi(sc probeScale) {
	mc := machine.Cluster1024()
	// perCall returns the host microseconds of one call, once per
	// repetition, and the dispatches one call takes.
	perCall := func(name string, np int, call func(r *mpi.Rank)) (us []float64, events float64) {
		us = p.timed(name, sc.reps, func() float64 {
			var empty, b bracket
			world(mc, np, func(r *mpi.Rank) {
				empty.around(r, func() {})
				b.around(r, func() {
					for k := 0; k < sc.iters; k++ {
						call(r)
					}
				})
			})
			events = float64(b.events-empty.events) / float64(sc.iters)
			return b.hostS * 1e6 / float64(sc.iters)
		})
		return us, events
	}

	// The two-phase shape: every rank addresses all np peers, all but two
	// of the pieces empty.
	piece := make([]byte, 4<<10)
	us, events := perCall("mpi.alltoallv", sc.np, func(r *mpi.Rank) {
		parts := make([][]byte, r.Size())
		parts[(r.Rank()+1)%r.Size()] = piece
		parts[(r.Rank()+2)%r.Size()] = piece
		r.AlltoallvScratch(parts)
	})
	p.rep.set("mpi.alltoallv_np64_us", us)
	p.rep.setOne("mpi.alltoallv_np64_events", events)

	_, events = perCall("mpi.barrier", sc.np, func(r *mpi.Rank) { r.Barrier() })
	p.rep.setOne("mpi.barrier_np64_events", events)

	us, _ = perCall("mpi.allreduce", sc.np, func(r *mpi.Rank) { r.AllreduceFloat64(float64(r.Rank()), mpi.OpMax) })
	p.rep.set("mpi.allreduce_np64_us", us)

	msg := make([]byte, 64<<10)
	us, _ = perCall("mpi.pingpong", 2, func(r *mpi.Rank) {
		if r.Rank() == 0 {
			r.Send(1, 7, msg)
			r.Recv(1, 7)
		} else {
			r.Recv(0, 7)
			r.Send(0, 7, msg)
		}
	})
	p.rep.set("mpi.pingpong_us", us)

	us, _ = perCall("mpi.isend_waitall", 8, func(r *mpi.Rank) {
		var reqs []*mpi.Request
		for peer := 0; peer < r.Size(); peer++ {
			if peer != r.Rank() {
				reqs = append(reqs, r.Isend(peer, 9, piece), r.Irecv(peer, 9))
			}
		}
		r.Waitall(reqs...)
	})
	p.rep.set("mpi.isend_waitall_us", us)
}

func (p prober) mpiio(sc probeScale) {
	// One dim³×4 B array, (Block,Block,Block) over the ranks, on pvfs.
	var rMS []float64
	var wEv, rEv float64
	wMS := p.timed("mpiio.collective", sc.reps, func() float64 {
		var empty, wb, rb bracket
		mach := machine.New(machine.Cluster1024())
		fs := pfs.NewPVFS(mach, pfs.DefaultPVFS())
		eng := sim.NewEngine()
		pz, py, px := mpi.ProcGrid3D(sc.np)
		mpi.NewWorld(eng, mach, sc.np, func(r *mpi.Rank) {
			f, err := mpiio.Open(r, fs, "cube", mpiio.ModeCreate, mpiio.DefaultHints())
			must(err)
			sub := mpi.BlockDecompose3D([3]int{sc.dim, sc.dim, sc.dim}, pz, py, px, r.Rank(), 4)
			buf := make([]byte, sub.Bytes())
			empty.around(r, func() {})
			wb.around(r, func() { f.WriteAtAll(sub.Flatten(), buf) })
			rb.around(r, func() { f.ReadAtAll(sub.Flatten(), buf) })
			f.Close()
		})
		must(eng.Run())
		rMS = append(rMS, rb.hostS*1e3)
		wEv, rEv = float64(wb.events-empty.events), float64(rb.events-empty.events)
		return wb.hostS * 1e3
	})
	p.rep.set("mpiio.write_all_np64_ms", wMS)
	p.rep.set("mpiio.read_all_np64_ms", rMS)
	p.rep.setOne("mpiio.write_all_np64_events", wEv)
	p.rep.setOne("mpiio.read_all_np64_events", rEv)

	// Independent paths at np=8: a sieved noncontiguous read and a
	// list-I/O write of scattered 64 B pieces.
	const np = 8
	pieces := 64 * sc.iters
	var listMS []float64
	sieveMS := p.timed("mpiio.independent", sc.reps, func() float64 {
		var sb, lb bracket
		mach := machine.New(machine.ChibaCity())
		fs := pfs.NewPVFS(mach, pfs.DefaultPVFS())
		eng := sim.NewEngine()
		pz, py, px := mpi.ProcGrid3D(np)
		mpi.NewWorld(eng, mach, np, func(r *mpi.Rank) {
			f, err := mpiio.Open(r, fs, "cube", mpiio.ModeCreate, mpiio.DefaultHints())
			must(err)
			if r.Rank() == 0 {
				f.WriteAt(make([]byte, sc.dim*sc.dim*sc.dim*4), 0)
			}
			sub := mpi.BlockDecompose3D([3]int{sc.dim, sc.dim, sc.dim}, pz, py, px, r.Rank(), 4)
			buf := make([]byte, sub.Bytes())
			sb.around(r, func() { f.ReadRuns(sub.Flatten(), buf) })

			offs, lens := make([]int64, pieces), make([]int64, pieces)
			for k := range offs {
				offs[k] = int64(k*np+r.Rank()) * 1024
				lens[k] = 64
			}
			data := make([]byte, 64*pieces)
			lb.around(r, func() { f.WriteList(offs, lens, data) })
			f.Close()
		})
		must(eng.Run())
		listMS = append(listMS, lb.hostS*1e3)
		return sb.hostS * 1e3
	})
	p.rep.set("mpiio.read_sieve_ms", sieveMS)
	p.rep.set("mpiio.write_list_ms", listMS)
}

// hdf5 counts the dispatches of an 8-dataset dump with attributes, the
// shape of the root BenchmarkAblationHDF5Overheads.
func (p prober) hdf5() {
	const dim, np, arrays = 32, 8, 8
	p.rep.set("hdf5.dump8_events", p.timed("hdf5.dump8", 1, func() float64 {
		mach := machine.New(machine.Origin2000())
		fs := pfs.NewXFS(mach, pfs.DefaultXFS())
		eng := sim.NewEngine()
		pz, py, px := mpi.ProcGrid3D(np)
		mpi.NewWorld(eng, mach, np, func(r *mpi.Rank) {
			h, err := hdf5.Create(r, fs, "x.h5", hdf5.DefaultConfig(), mpiio.DefaultHints())
			must(err)
			sel := mpi.BlockDecompose3D([3]int{dim, dim, dim}, pz, py, px, r.Rank(), 4)
			data := make([]byte, sel.Bytes())
			for i := 0; i < arrays; i++ {
				ds, err := h.CreateDataset(fmt.Sprintf("f%d", i), []int{dim, dim, dim}, 4)
				must(err)
				ds.WriteHyperslab(sel, data)
				h.WriteAttribute(fmt.Sprintf("a%d", i), []byte("v"))
				ds.Close()
			}
			h.Close()
		})
		must(eng.Run())
		return float64(eng.Events())
	}))
}

// pfs streams MiB-sized requests from one client: the host cost of stripe
// mapping plus the byte store, writes and reads apart.
func (p prober) pfs(sc probeScale, seed int64) {
	block := make([]byte, 1<<20)
	x := uint64(seed)*0x9E3779B97F4A7C15 + 1
	for i := range block {
		x = x*6364136223846793005 + 1442695040888963407
		block[i] = byte(x >> 56)
	}
	stream := func(mc machine.Config, kind string) (writeUS, readUS []float64) {
		writeUS = p.timed("pfs."+kind, sc.reps, func() float64 {
			mach := machine.New(mc)
			fs, err := enzo.MakeFS(kind, mach)
			must(err)
			eng := sim.NewEngine()
			var w, r time.Duration
			eng.Spawn("client", func(pr *sim.Proc) {
				c := pfs.Client{Proc: pr, Node: 0}
				f, err := fs.Create(c, "stream")
				must(err)
				t := time.Now()
				for k := 0; k < sc.mib; k++ {
					f.WriteAt(c, block, int64(k)<<20)
				}
				w = time.Since(t)
				buf := make([]byte, len(block))
				t = time.Now()
				for k := 0; k < sc.mib; k++ {
					f.ReadAt(c, buf, int64(k)<<20)
				}
				r = time.Since(t)
				f.Close(c)
			})
			must(eng.Run())
			readUS = append(readUS, float64(r.Microseconds())/float64(sc.mib))
			return float64(w.Microseconds()) / float64(sc.mib)
		})
		return writeUS, readUS
	}
	w, r := stream(machine.ChibaCity(), "pvfs")
	p.rep.set("pfs.pvfs_write_us_per_mib", w)
	p.rep.set("pfs.pvfs_read_us_per_mib", r)
	w, _ = stream(machine.SP2(), "gpfs")
	p.rep.set("pfs.gpfs_write_us_per_mib", w)
	w, _ = stream(machine.Origin2000(), "xfs")
	p.rep.set("pfs.xfs_write_us_per_mib", w)
}

// amr times the cold hierarchy builds and returns the AMR64 hierarchy's
// field bytes, grid after grid, as the input of the codec and chunker
// probes. The probes take the seed as the clump layout: they are not gated,
// so they can afford inputs that differ more than the workloads' do.
func (p prober) amr(sc probeScale, o options) []byte {
	var h *amr.Hierarchy
	build := func(c enzo.Config) func() float64 {
		return func() float64 {
			t := time.Now()
			h = amr.BuildHierarchy(c.Dims, c.NParticles, c.PreRefine, c.Threshold, o.seed)
			return time.Since(t).Seconds()
		}
	}
	small, large := enzo.AMR64(), enzo.AMR128()
	if o.quick {
		small, large = enzo.Tiny(), enzo.Tiny()
	}
	p.rep.set("amr.build_amr128_s", p.timed("amr.build_amr128", min(sc.reps, 3), build(large)))
	p.rep.set("amr.build_amr64_s", p.timed("amr.build_amr64", sc.reps, build(small)))

	var field []byte
	for _, g := range h.Grids {
		for _, f := range g.Fields {
			field = append(field, f...)
		}
	}
	return field
}

func mbPerS(bytes int, d time.Duration) float64 { return float64(bytes) / 1e6 / d.Seconds() }

func (p prober) compress(sc probeScale, field []byte) {
	reps := min(sc.reps, 3) // an lzss pass over the field bytes takes about a second
	var blob []byte
	pack := func(name string) []float64 {
		c, err := compress.ByName(name)
		must(err)
		return p.timed("compress."+name+"_pack", reps, func() float64 {
			t := time.Now()
			blob = compress.Pack(c, field, 0)
			return mbPerS(len(field), time.Since(t))
		})
	}
	p.rep.set("compress.delta_pack_mb_s", pack("delta"))
	p.rep.set("compress.rle_pack_mb_s", pack("rle"))
	p.rep.set("compress.lzss_pack_mb_s", pack("lzss"))
	p.rep.setOne("compress.lzss_ratio", float64(len(field))/float64(len(blob)))
	p.rep.set("compress.lzss_unpack_mb_s", p.timed("compress.lzss_unpack", reps, func() float64 {
		t := time.Now()
		raw, err := compress.Unpack(blob)
		must(err)
		return mbPerS(len(raw), time.Since(t))
	}))
	p.rep.Notes = append(p.rep.Notes, fmt.Sprintf("codec and chunker probes read %.1f MB of field bytes", float64(len(field))/1e6))
}

func (p prober) castore(sc probeScale, field []byte) {
	var chunks [][]byte
	p.rep.set("castore.split_mb_s", p.timed("castore.split", sc.reps, func() float64 {
		t := time.Now()
		chunks = castore.Split(field, castore.DefaultParams())
		return mbPerS(len(field), time.Since(t))
	}))
	p.rep.setOne("castore.split_chunks", float64(len(chunks)))
	p.rep.set("castore.keyof_mb_s", p.timed("castore.keyof", sc.reps, func() float64 {
		t := time.Now()
		var sum uint64
		for _, c := range chunks {
			sum += castore.KeyOf(c).Sum
		}
		keySink = sum
		return mbPerS(len(field), time.Since(t))
	}))
}

// keySink keeps the KeyOf loop's result alive.
var keySink uint64

// obs times a Begin/End pair on a process with no tracer attached — the
// cost every instrumentation site pays on the untraced workloads — and with
// one.
func (p prober) obs(sc probeScale) {
	pairs := 10000 * sc.iters
	pair := func(traced bool) func() float64 {
		return func() float64 {
			eng := sim.NewEngine()
			var ns float64
			eng.Spawn("rank", func(pr *sim.Proc) {
				if traced {
					obs.NewTracer().Attach(pr, 0)
				}
				t := time.Now()
				for k := 0; k < pairs; k++ {
					obs.Begin(pr, obs.LayerMPI, "probe").End()
				}
				ns = float64(time.Since(t).Nanoseconds()) / float64(pairs)
			})
			must(eng.Run())
			return ns
		}
	}
	p.rep.set("obs.begin_end_ns_off", p.timed("obs.begin_end_off", sc.reps, pair(false)))
	p.rep.set("obs.begin_end_ns_on", p.timed("obs.begin_end_on", sc.reps, pair(true)))
}

// tenant runs one traced fleet — twin writers and a scan reader behind a
// burst buffer under fair queueing — the one place sim.Server runs a
// non-FIFO policy.
func (p prober) tenant(o options) {
	cfg := seeded(enzo.AMR64(), o.seed)
	if o.quick {
		cfg = enzo.Tiny()
	}
	var fr *tenant.FleetResult
	p.rep.set("tenant.fleet_s", p.timed("tenant.fleet", 1, func() float64 {
		t := time.Now()
		var err error
		fr, err = tenant.RunFleet(tenant.FleetConfig{
			Machine: machine.ChibaCity(), FS: "pvfs", Policy: "fair", BurstBuffer: true, Trace: true,
			Jobs: []tenant.JobSpec{
				{Name: "amr-a", Kind: tenant.KindEnzo, Procs: 4, Config: cfg, Backend: enzo.BackendMPIIO},
				{Name: "amr-b", Kind: tenant.KindEnzo, Procs: 4, StartAt: 0.5, Config: cfg, Backend: enzo.BackendMPIIO},
				{Name: "scan", Kind: tenant.KindReader, Procs: 4, StartAt: 0.25, ReadBytes: 8 << 20, Passes: 20},
			}})
		must(err)
		return time.Since(t).Seconds()
	}))
	p.rep.setOne("tenant.worst_slowdown", fr.WorstSlowdown())
	p.rep.setOne("tenant.fleet_makespan_vs", fr.Makespan)
}
