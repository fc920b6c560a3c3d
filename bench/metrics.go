package main

// metricDef names one benchmark metric. The two tables below are the single
// source of the names BENCHMARK.json, the README and every later PR use.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the base's median it may worsen by
	Moves  string  // per-layer only: the end-to-end metric and workload it should move
}

// notMeasured is the per-layer value of a metric the pass could not take:
// obs-derived counts on exchange_np64 (a traced np=64 run is OOM-killed on
// 15 GB) and cpu shares when `go tool pprof` is missing. Zero always means
// "measured, and it was zero".
const notMeasured = -1

// endToEnd is what a person running a sweep sees. Host metrics cost that
// person; simulated metrics (unit vs, virtual seconds) are what the modelled
// 2002 machines would take, and a simulator-only speed-up must not move them.
//
// fail_ratio is printed by the command but is not in this table: the
// benchmark contract wants metrics that are never 0 and carries failures in
// the result line's attempted/failed counts instead.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "allocs_k", Unit: "k", Better: "lower", Bound: 0.02},
	{Name: "sim_io_vs", Unit: "vs", Better: "lower", Bound: 0.05},
	{Name: "sim_makespan_vs", Unit: "vs", Better: "lower", Bound: 0.05},
}

// simExact is the bound -compare applies to the simulated metrics when both
// reports ran the same seed: the virtual clock is deterministic, so anything
// beyond float noise is a model change. The table's wider bound only covers
// the spread between seeds.
const simExact = 1e-9

func isSimulated(name string) bool { return name == "sim_io_vs" || name == "sim_makespan_vs" }

const (
	onExchange = "wall_s on exchange_np64"
	onPaper    = "wall_s, alloc_mb on paper_np8"
	onDedup    = "wall_s on dedup_codec_np8"
	onTraced   = "wall_s, alloc_mb on traced_np16"
	onSetup    = "setup_s on every workload"
	probeOnly  = "none of the four workloads (FairQueue/tenant path); guards against a regression there"
)

// perLayer lists one layer's metrics after another; a layer is a package
// under internal/, runtime is the Go process and bench this program.
// Counts repeat bit-for-bit at a fixed seed; host timings are ungated.
var perLayer = []metricDef{
	// sim: engine dispatch and servers.
	{Name: "sim.events", Unit: "count", Better: "lower", Moves: onExchange},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower", Moves: onExchange},
	{Name: "sim.dispatch_ns", Unit: "ns", Better: "lower", Moves: onExchange},
	{Name: "sim.handoff_ns", Unit: "ns", Better: "lower", Moves: onExchange},
	{Name: "sim.serve_fifo_ns", Unit: "ns", Better: "lower", Moves: onExchange},
	{Name: "sim.serve_fair_ns", Unit: "ns", Better: "lower", Moves: probeOnly},
	{Name: "sim.dispatch_share_est", Unit: "ratio", Better: "lower", Moves: "estimate of the share of wall_s a dispatch speed-up can reach"},
	{Name: "sim.cpu_share", Unit: "ratio", Better: "lower", Moves: onExchange},

	// mpi: point-to-point and collectives on cluster1024.
	{Name: "mpi.alltoallv_np64_events", Unit: "count", Better: "lower", Moves: "sim.events, wall_s on exchange_np64"},
	{Name: "mpi.alltoallv_np64_us", Unit: "us", Better: "lower", Moves: onExchange},
	{Name: "mpi.barrier_np64_events", Unit: "count", Better: "lower", Moves: "sim.events, wall_s on exchange_np64"},
	{Name: "mpi.allreduce_np64_us", Unit: "us", Better: "lower", Moves: onExchange},
	{Name: "mpi.pingpong_us", Unit: "us", Better: "lower", Moves: onExchange},
	{Name: "mpi.isend_waitall_us", Unit: "us", Better: "lower", Moves: onExchange},
	{Name: "mpi.vsec", Unit: "vs", Better: "lower", Moves: "sim_io_vs on exchange_np64"},
	{Name: "mpi.cpu_share", Unit: "ratio", Better: "lower", Moves: onExchange},

	// mpiio: two-phase collectives, sieving, list I/O.
	{Name: "mpiio.write_all_np64_events", Unit: "count", Better: "lower", Moves: "sim.events, wall_s on exchange_np64"},
	{Name: "mpiio.write_all_np64_ms", Unit: "ms", Better: "lower", Moves: onExchange},
	{Name: "mpiio.read_all_np64_events", Unit: "count", Better: "lower", Moves: "sim.events, wall_s on exchange_np64"},
	{Name: "mpiio.read_all_np64_ms", Unit: "ms", Better: "lower", Moves: onExchange},
	{Name: "mpiio.read_sieve_ms", Unit: "ms", Better: "lower", Moves: onPaper},
	{Name: "mpiio.write_list_ms", Unit: "ms", Better: "lower", Moves: onPaper},
	{Name: "mpiio.vsec", Unit: "vs", Better: "lower", Moves: "sim_io_vs on paper_np8, exchange_np64"},
	{Name: "mpiio.collective_ops", Unit: "count", Better: "lower", Moves: "sim.events on exchange_np64"},
	{Name: "mpiio.independent_ops", Unit: "count", Better: "lower", Moves: "sim_io_vs on paper_np8"},
	{Name: "mpiio.logical_mb", Unit: "MB", Better: "lower", Moves: "fixed by the input; a change means the application moved"},
	{Name: "mpiio.io_vs", Unit: "vs", Better: "lower", Moves: "sim_io_vs on paper_np8"},
	{Name: "mpiio.cpu_share", Unit: "ratio", Better: "lower", Moves: onExchange},

	// hdf4, hdf5: the library layers of the paper's comparison.
	{Name: "hdf4.run_s", Unit: "s", Better: "lower", Moves: "wall_s on paper_np8"},
	{Name: "hdf5.run_s", Unit: "s", Better: "lower", Moves: "wall_s on paper_np8, dedup_codec_np8"},
	{Name: "hdf4.io_vs", Unit: "vs", Better: "lower", Moves: "sim_io_vs on paper_np8"},
	{Name: "hdf5.io_vs", Unit: "vs", Better: "lower", Moves: "sim_io_vs on paper_np8, dedup_codec_np8"},
	{Name: "hdf5.vsec", Unit: "vs", Better: "lower", Moves: "sim_io_vs on paper_np8"},
	{Name: "hdf5.dump8_events", Unit: "count", Better: "lower", Moves: "sim.events on paper_np8"},

	// pfs: stripe mapping and the byte store, writes and reads apart.
	{Name: "pfs.pvfs_write_us_per_mib", Unit: "us", Better: "lower", Moves: onPaper},
	{Name: "pfs.pvfs_read_us_per_mib", Unit: "us", Better: "lower", Moves: onPaper},
	{Name: "pfs.gpfs_write_us_per_mib", Unit: "us", Better: "lower", Moves: onPaper},
	{Name: "pfs.xfs_write_us_per_mib", Unit: "us", Better: "lower", Moves: onPaper},
	{Name: "pfs.vsec", Unit: "vs", Better: "lower", Moves: "sim_io_vs on every workload"},
	{Name: "pfs.requests", Unit: "count", Better: "lower", Moves: "sim_io_vs on every workload"},
	{Name: "pfs.small_request_ratio", Unit: "ratio", Better: "lower", Moves: "sim_io_vs on paper_np8"},
	{Name: "pfs.physical_mb", Unit: "MB", Better: "lower", Moves: "alloc_mb on paper_np8"},
	{Name: "pfs.server_busy_vs", Unit: "vs", Better: "lower", Moves: "sim_io_vs on every workload"},
	{Name: "pfs.server_wait_vs", Unit: "vs", Better: "lower", Moves: "sim_io_vs on every workload"},
	{Name: "pfs.cpu_share", Unit: "ratio", Better: "lower", Moves: onPaper},

	// compress: codec kernels.
	{Name: "compress.lzss_pack_mb_s", Unit: "MB/s", Better: "higher", Moves: onDedup},
	{Name: "compress.lzss_unpack_mb_s", Unit: "MB/s", Better: "higher", Moves: onDedup},
	{Name: "compress.delta_pack_mb_s", Unit: "MB/s", Better: "higher", Moves: probeOnly},
	{Name: "compress.rle_pack_mb_s", Unit: "MB/s", Better: "higher", Moves: probeOnly},
	{Name: "compress.lzss_ratio", Unit: "ratio", Better: "higher", Moves: "sim_io_vs on dedup_codec_np8"},
	{Name: "compress.vsec", Unit: "vs", Better: "lower", Moves: "sim_makespan_vs on dedup_codec_np8"},
	{Name: "compress.cpu_share", Unit: "ratio", Better: "lower", Moves: onDedup},

	// castore: chunker, keys, dedup outcome.
	{Name: "castore.split_mb_s", Unit: "MB/s", Better: "higher", Moves: onDedup},
	{Name: "castore.keyof_mb_s", Unit: "MB/s", Better: "higher", Moves: onDedup},
	{Name: "castore.split_chunks", Unit: "count", Better: "lower", Moves: "castore.chunk_puts on dedup_codec_np8"},
	{Name: "castore.chunk_puts", Unit: "count", Better: "lower", Moves: "sim_io_vs on dedup_codec_np8"},
	{Name: "castore.chunk_hits", Unit: "count", Better: "higher", Moves: "sim_io_vs on dedup_codec_np8"},
	{Name: "castore.physical_mb", Unit: "MB", Better: "lower", Moves: "sim_io_vs on dedup_codec_np8"},
	{Name: "castore.dedup_ratio", Unit: "ratio", Better: "higher", Moves: "sim_io_vs on dedup_codec_np8"},
	{Name: "castore.cpu_share", Unit: "ratio", Better: "lower", Moves: onDedup},

	// amr: the cold hierarchy build every process pays once.
	{Name: "amr.build_amr64_s", Unit: "s", Better: "lower", Moves: onSetup},
	{Name: "amr.build_amr128_s", Unit: "s", Better: "lower", Moves: onSetup},

	// enzo: the application driver.
	{Name: "enzo.read_vs", Unit: "vs", Better: "lower", Moves: "sim_io_vs on every workload"},
	{Name: "enzo.write_vs", Unit: "vs", Better: "lower", Moves: "sim_io_vs on every workload"},
	{Name: "enzo.restart_vs", Unit: "vs", Better: "lower", Moves: "sim_io_vs on every workload"},
	{Name: "enzo.mpiio_run_s", Unit: "s", Better: "lower", Moves: "wall_s on paper_np8, exchange_np64"},
	{Name: "enzo.cas_run_s", Unit: "s", Better: "lower", Moves: onDedup},
	{Name: "enzo.h5async_run_s", Unit: "s", Better: "lower", Moves: onDedup},
	{Name: "enzo.hidden_write_frac", Unit: "ratio", Better: "higher", Moves: "sim_makespan_vs on dedup_codec_np8"},
	{Name: "enzo.kb_per_event", Unit: "kB", Better: "lower", Moves: "alloc_mb on paper_np8, dedup_codec_np8"},
	{Name: "enzo.cpu_share", Unit: "ratio", Better: "lower", Moves: onPaper},

	// obs, diag: the tracer and what reads it.
	{Name: "obs.begin_end_ns_off", Unit: "ns", Better: "lower", Moves: "wall_s on the three untraced workloads"},
	{Name: "obs.begin_end_ns_on", Unit: "ns", Better: "lower", Moves: onTraced},
	{Name: "obs.traced_run_s", Unit: "s", Better: "lower", Moves: onTraced},
	{Name: "obs.plain_run_s", Unit: "s", Better: "lower", Moves: "wall_s on the three untraced workloads"},
	{Name: "obs.overhead_ratio", Unit: "ratio", Better: "lower", Moves: onTraced},
	{Name: "obs.spans", Unit: "count", Better: "lower", Moves: onTraced},
	{Name: "obs.serve_events", Unit: "count", Better: "lower", Moves: onTraced},
	{Name: "obs.export_s", Unit: "s", Better: "lower", Moves: onTraced},
	{Name: "obs.export_mb", Unit: "MB", Better: "lower", Moves: onTraced},
	{Name: "obs.cpu_share", Unit: "ratio", Better: "lower", Moves: onTraced},
	{Name: "diag.snapshot_s", Unit: "s", Better: "lower", Moves: "wall_s on traced_np16"},
	{Name: "diag.analyze_s", Unit: "s", Better: "lower", Moves: "wall_s on traced_np16"},
	{Name: "diag.matrix_cells", Unit: "count", Better: "lower", Moves: "diag.snapshot_s"},

	// tenant: the fleet runner, sim.Server under FairQueue.
	{Name: "tenant.fleet_s", Unit: "s", Better: "lower", Moves: probeOnly},
	{Name: "tenant.worst_slowdown", Unit: "ratio", Better: "lower", Moves: probeOnly},
	{Name: "tenant.fleet_makespan_vs", Unit: "vs", Better: "lower", Moves: probeOnly},

	// runtime: the Go process.
	{Name: "runtime.cpu_s", Unit: "s", Better: "lower", Moves: "wall_s on every workload (one core today)"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower", Moves: "the largest problem that fits the box"},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower", Moves: "wall_s where alloc_mb is large"},
	{Name: "runtime.gomaxprocs", Unit: "count", Better: "higher", Moves: "context for runtime.cpu_s"},
	{Name: "runtime.cpu_share", Unit: "ratio", Better: "lower", Moves: "wall_s where alloc_mb is large"},

	// bench: cost of this program's own traced pass.
	{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower", Moves: "nothing; the layer pass over a plain repetition"},
}

// cpuShareLayers are the buckets the CPU profile is split into.
var cpuShareLayers = []string{"sim", "mpi", "mpiio", "pfs", "enzo", "compress", "castore", "obs", "runtime"}

func findMetric(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].Name == name {
			return &defs[i]
		}
	}
	return nil
}
