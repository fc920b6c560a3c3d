// Package enzo reproduces the ENZO cosmology application's simulation flow
// and its three I/O implementations from the paper:
//
//   - BackendHDF4: the original design — sequential HDF4 containers, all
//     top-grid I/O funnelled through processor 0, subgrids in individual
//     files written in parallel without communication;
//   - BackendMPIIO: the paper's direct MPI-IO port — collective two-phase
//     I/O for the regularly partitioned baryon fields, block-wise
//     independent I/O plus redistribution (and a parallel sort on writes)
//     for the irregular particle arrays, and all grids in a single shared
//     file at offsets computed from the replicated hierarchy metadata;
//   - BackendHDF5: the parallel HDF5 port — the same access strategy
//     expressed through hyperslab selections, paying HDF5's dataset
//     create/close synchronization, interleaved metadata and hyperslab
//     packing costs.
//
// A run performs the full measured cycle: write initial conditions
// (untimed setup), read the initial grids, evolve/load-balance, dump
// checkpoints, then restart-read the dump and verify byte-for-byte that
// the state survived the round trip.
//
// The I/O is four orthogonal stages. The walk (layout.go) is the paper's
// one access strategy, written once: top-grid fields, top-grid particles,
// subgrids. It drives a layout — how a container stores a field partition,
// a particle row block and a whole subgrid: fixed offsets (rawio.go), the
// compressed z-directory (rawzio.go), HDF5 datasets (hdf5io.go), the
// content-addressed chunk store (casio.go); HDF4's processor-0 funnel
// (hdf4io.go) implements the same top-level interface without the walk.
// Every transfer goes through the transport (transport.go): sync or
// deferred, strict or tolerant. Integrity (scrub.go) sits on top: manifests,
// read-back scrubs, re-dumps and the generation fallback. layoutFor is the
// only place that looks at the backend, the codec and the castore switch.
package enzo

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/amr"
	"repro/internal/castore"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// Backend selects an I/O implementation.
type Backend int

// The three I/O implementations compared in the paper, plus a variant of
// the MPI-IO port that routes even the single-owner subgrid arrays
// through MPI_File_write_all with collective buffering forced
// (romio_cb_write=enable, ROMIO's default of the era). The variant
// demonstrates how per-array collective writes serialize the dump — the
// communication overhead the paper measures on the Ethernet cluster.
const (
	BackendHDF4 Backend = iota
	BackendMPIIO
	BackendHDF5
	BackendMPIIOCB
)

func (b Backend) String() string {
	switch b {
	case BackendHDF4:
		return "hdf4"
	case BackendMPIIO:
		return "mpiio"
	case BackendHDF5:
		return "hdf5"
	case BackendMPIIOCB:
		return "mpiio-cb"
	}
	return "unknown"
}

// BackendByName parses a backend name.
func BackendByName(s string) (Backend, error) {
	switch s {
	case "hdf4":
		return BackendHDF4, nil
	case "mpiio":
		return BackendMPIIO, nil
	case "hdf5":
		return BackendHDF5, nil
	case "mpiio-cb":
		return BackendMPIIOCB, nil
	}
	return 0, fmt.Errorf("enzo: unknown backend %q", s)
}

// Config defines a problem instance.
type Config struct {
	Problem      string  // display name (AMR64, AMR128, ...)
	Dims         [3]int  // root grid cells
	NParticles   int     // particles in the root grid at start
	PreRefine    int     // pre-refined subgrid levels in the initial data
	Threshold    float64 // refinement density threshold
	Seed         int64
	Dumps        int   // checkpoint dumps per run
	FlopsPerCell int64 // evolution work per cell per cycle
	// RefineCycles adds this many dynamic refinement passes during the
	// evolution between the initial read and the dumps: the hierarchy
	// deepens, IDs and metadata are exchanged, and the dump layout grows
	// (Figure 2's evolution loop). 0 keeps the pre-refined hierarchy.
	RefineCycles int

	// AsyncIO enables the write-behind dump pipeline: each checkpoint's
	// writes are issued through the nonblocking/split-collective MPI-IO
	// interfaces, the rank computes the next evolution step while the
	// devices drain, and the dump settles before the following one starts.
	// The HDF4 backend ignores it and stays the synchronous baseline.
	// Restart files are bit-identical to the synchronous path.
	AsyncIO bool

	// CBNodes overrides the ROMIO cb_nodes hint (number of collective
	// aggregators); 0 keeps the host-based default of one aggregator per
	// physical node.
	CBNodes int

	// CBBufferSize and SieveBufferSize override the matching MPI-IO hints
	// (cb_buffer_size, ind_rd_buffer_size) in bytes; 0 keeps the ROMIO
	// defaults. DataSieving is a tri-state override for the data sieving
	// hint: 0 keeps the default (enabled), 1 forces it on, -1 forces it
	// off. The autotuner writes its chosen hint vector through these
	// fields, so a tuned Config is self-contained and replayable.
	CBBufferSize    int64
	SieveBufferSize int64
	DataSieving     int

	// Codec enables transparent compression of the regular baryon field
	// arrays in the MPI-IO and HDF5 paths ("" or "none" = off; see
	// compress.Names for the menu). Particle arrays stay raw — they are
	// high-entropy and their block-range accesses need fixed addressing —
	// and the HDF4 backend stays the uncompressed baseline.
	Codec string

	// ScrubOnDump enables checkpoint integrity protection: after the dump
	// phase each generation is read back and compared against its manifest
	// of content hashes (dumpNN.sum); a generation that fails the scrub is
	// re-dumped, and the restart falls back to the newest generation whose
	// manifest check passes. Off (the default), the run is bit-identical
	// to a build without the feature.
	ScrubOnDump bool
	// Generations bounds how many generations the restart fallback scans,
	// newest first (0 = all dumps). Only meaningful with ScrubOnDump.
	Generations int
	// MaxRedumps bounds the re-dump attempts per scrubbed generation
	// (0 = default of 2). Only meaningful with ScrubOnDump.
	MaxRedumps int

	// IORetry, when Enabled, is passed to the MPI-IO layer as its
	// per-request timeout/backoff/retry policy (see mpiio.RetryPolicy).
	IORetry mpiio.RetryPolicy

	// CAStore routes checkpoint dumps and restarts through the
	// content-addressed chunk store (internal/castore): grid arrays are
	// split into content-defined chunks, deduplicated against the retained
	// generations (a chunk already stored within the last Generations dumps
	// is referenced, not rewritten), and each new chunk is replicated on
	// Replicas data servers. The HDF4 backend ignores it and stays the
	// unmodified baseline.
	CAStore bool
	// Replicas is the number of data servers each castore chunk and
	// manifest is placed on; normalize clamps it into [1, NumDataServers].
	// Only meaningful with CAStore.
	Replicas int

	// MemBudget caps the estimated host-memory footprint of the run (the
	// simulator stores real grid, particle, and dump bytes, so a too-large
	// problem OOMs the host rather than merely running slowly). 0 applies
	// DefaultMemBudget; a negative value disables the guard. RunOnce fails
	// fast with a *FootprintError when EstimateFootprint exceeds the
	// budget.
	MemBudget int64
}

// DefaultMemBudget is the footprint cap applied when Config.MemBudget is
// zero: large enough for every problem up to AMR256 at any rank count,
// small enough to stop an accidental AMR512 run before it OOMs the host.
const DefaultMemBudget int64 = 16 << 30

// FootprintError reports a run rejected by the memory-footprint guard.
type FootprintError struct {
	Problem  string
	Estimate int64 // bytes, from EstimateFootprint
	Budget   int64 // bytes
}

func (e *FootprintError) Error() string {
	return fmt.Sprintf("enzo: %s needs an estimated %d MiB of host memory, over the %d MiB budget; raise Config.MemBudget (-membudget) to run it",
		e.Problem, e.Estimate>>20, e.Budget>>20)
}

// EstimateFootprint returns a structure-only estimate of the peak host
// bytes a run materializes, before any grid data is generated. It counts
// the live hierarchy (root fields and particles, with each pre-refined
// level adding a comparable share of refined-region data), the dump bytes
// retained by the in-memory file store, and the transient pack/exchange
// buffers of the I/O phases — deliberately rounded up, since the guard's
// job is to refuse runs that would OOM, not to meter ones that fit.
func (c Config) EstimateFootprint(nprocs int) int64 {
	cells := int64(c.Dims[0]) * int64(c.Dims[1]) * int64(c.Dims[2])
	fields := cells * amr.FieldElemSize * int64(len(amr.FieldNames))
	particles := int64(c.NParticles) * amr.BytesPerParticle()
	base := fields + particles
	// Each pre-refined or dynamically refined level adds subgrids covering
	// the over-threshold region; half the root volume per level is an
	// upper-end share for these clustered problems.
	levels := int64(c.PreRefine + c.RefineCycles)
	live := base + base*levels/2
	// Live state, the newest dump in the byte store (every generation
	// beyond the first replaces the previous file set), a restart read-back
	// copy, and exchange/pack transients on top.
	est := 3*live + live/2
	if c.ScrubOnDump || c.CAStore {
		est += live // retained verification snapshot / chunk index
	}
	_ = nprocs // per-rank overheads are dwarfed by the data bytes
	return est
}

// checkFootprint applies the budget in Config.MemBudget (0 = default,
// negative = unlimited).
func (c Config) checkFootprint(nprocs int) error {
	budget := c.MemBudget
	if budget < 0 {
		return nil
	}
	if budget == 0 {
		budget = DefaultMemBudget
	}
	if est := c.EstimateFootprint(nprocs); est > budget {
		return &FootprintError{Problem: c.Problem, Estimate: est, Budget: budget}
	}
	return nil
}

// normalize clamps nonsensical configuration values into usable ones, the
// way (*mpiio.Hints).normalize does for hint values, instead of letting
// them silently misbehave downstream. nsrv is the volume's independent
// data-server count (0 when the capability is absent; the replica count
// then keeps only its lower clamp and the store degrades to one copy).
func (c *Config) normalize(nsrv int) {
	if c.Generations < 1 {
		c.Generations = 0 // 0 = scan all dumps / unlimited dedup retention
	}
	if c.MaxRedumps < 0 {
		c.MaxRedumps = 0 // 0 = the default re-dump budget
	}
	if c.Replicas < 1 {
		c.Replicas = 1
	}
	if nsrv > 0 && c.Replicas > nsrv {
		c.Replicas = nsrv
	}
}

// AMR64 is the paper's smallest problem: a 64^3 root grid.
func AMR64() Config {
	return Config{Problem: "AMR64", Dims: [3]int{64, 64, 64}, NParticles: 64 * 64 * 64 / 2,
		PreRefine: 2, Threshold: 2.0, Seed: 1789, Dumps: 1, FlopsPerCell: 40}
}

// AMR128 is the 128^3 problem.
func AMR128() Config {
	return Config{Problem: "AMR128", Dims: [3]int{128, 128, 128}, NParticles: 128 * 128 * 128 / 2,
		PreRefine: 2, Threshold: 2.0, Seed: 1789, Dumps: 1, FlopsPerCell: 40}
}

// AMR256 is the 256^3 problem (used for the Table 1 accounting; running it
// end-to-end is possible but slow).
func AMR256() Config {
	return Config{Problem: "AMR256", Dims: [3]int{256, 256, 256}, NParticles: 256 * 256 * 256 / 2,
		PreRefine: 2, Threshold: 2.0, Seed: 1789, Dumps: 1, FlopsPerCell: 40}
}

// AMR512 is the 512^3 problem for the opt-in np=1024 scale runs. Its
// in-memory state is tens of gigabytes (the simulator stores real dump
// bytes), so runs are gated by the memory-footprint guard: callers must
// raise the budget explicitly (-membudget) to run it.
func AMR512() Config {
	return Config{Problem: "AMR512", Dims: [3]int{512, 512, 512}, NParticles: 512 * 512 * 512 / 2,
		PreRefine: 2, Threshold: 2.0, Seed: 1789, Dumps: 1, FlopsPerCell: 40}
}

// Tiny is a small problem for tests and the quickstart example.
func Tiny() Config {
	return Config{Problem: "Tiny", Dims: [3]int{16, 16, 16}, NParticles: 800,
		PreRefine: 2, Threshold: 2.0, Seed: 1789, Dumps: 1, FlopsPerCell: 40}
}

// ProblemByName returns the named problem size: tiny (or Tiny), AMR64,
// AMR128, AMR256 or AMR512.
func ProblemByName(name string) (Config, error) {
	switch name {
	case "tiny", "Tiny":
		return Tiny(), nil
	case "AMR64":
		return AMR64(), nil
	case "AMR128":
		return AMR128(), nil
	case "AMR256":
		return AMR256(), nil
	case "AMR512":
		return AMR512(), nil
	}
	return Config{}, fmt.Errorf("unknown problem %q (want tiny, AMR64, AMR128, AMR256 or AMR512)", name)
}

// Quick returns the problem shrunk for a smoke run: a quarter of the root
// grid per dimension and half as many particles as cells, so the AMR
// structure stays and only the resolution drops. The root grid never goes
// below 8^3, which only Tiny would.
func (c Config) Quick() Config {
	n := c.Dims[0] / 4
	if n < 8 {
		n = 8
	}
	c.Dims = [3]int{n, n, n}
	c.NParticles = n * n * n / 2
	return c
}

// Phase is one timed region of the run.
type Phase struct {
	Name    string
	Seconds float64
}

// Result is the outcome of one simulated run, filled in by rank 0.
type Result struct {
	Problem string
	Backend Backend
	FS      string
	Procs   int
	Codec   string // "none" when compression is off

	Phases []Phase

	// BytesRead/BytesWritten cover the measured phases only (setup IC
	// writes are excluded).
	BytesRead    int64
	BytesWritten int64

	// Verified reports that the restart state matched the pre-dump state
	// byte-for-byte (fields) and as a multiset (particles).
	Verified bool

	// Grids is the hierarchy size (root + subgrids).
	Grids int

	// Makespan is the run's total virtual time (engine max clock),
	// including the untimed setup.
	Makespan float64

	// Async dump accounting (AsyncIO runs only; both zero otherwise).
	// ExposedWrite is dump wall-time the ranks actually waited on I/O
	// (issue + drain, max across ranks, summed over dumps); HiddenWrite is
	// device time that ran under the overlapped compute. The "write" phase
	// of an async run additionally contains the overlap compute itself.
	ExposedWrite float64
	HiddenWrite  float64

	// Async restart-read accounting (AsyncIO runs only; both zero
	// otherwise). ExposedRead is restart wall-time the ranks spent waiting
	// for deferred reads to settle (max across ranks, like the write
	// split); HiddenRead is device read time that completed underneath the
	// pipeline's decode/scatter/redistribution work.
	ExposedRead float64
	HiddenRead  float64

	// Fault-tolerance accounting (ScrubOnDump runs only; all zero
	// otherwise). ScrubFailures counts generations that failed a read-back
	// scrub (including after re-dumps); Redumps counts re-dump attempts;
	// RestartFallbacks counts dirty generations the restart skipped before
	// finding a clean one.
	ScrubFailures    int
	Redumps          int
	RestartFallbacks int

	// Content-addressed store accounting (CAStore runs only; all zero
	// otherwise), summed across ranks. Logical bytes are the raw bytes the
	// dump presented to the store; physical bytes are the payload bytes
	// actually written, summed over replicas; deduped bytes are raw bytes
	// elided by cross-generation dedup hits. CASFailovers counts chunk and
	// manifest reads rerouted off a failed replica.
	CASChunkPuts     int64
	CASChunkHits     int64
	CASLogicalBytes  int64
	CASPhysicalBytes int64
	CASDedupedBytes  int64
	CASFailovers     int64

	// Events is the number of scheduler dispatches the run took — a
	// wall-clock cost proxy for the simulator itself (virtual results are
	// unaffected by it).
	Events int64

	// restartFailed records that no retained generation passed its
	// manifest check; runOnce turns it into a typed *RestartError.
	restartFailed bool
}

// RestartError reports that a ScrubOnDump restart found no retained dump
// generation whose read-back matched its manifest. The run itself
// completed — RunOnce returns the populated Result alongside this error,
// so the timing and fault accounting stay usable — but the restored state
// is not trustworthy (Result.Verified is false).
type RestartError struct {
	Dumps       int // dump generations the run wrote
	Generations int // retention bound the fallback scanned (0 = all)
	Fallbacks   int // dirty generations skipped before giving up
}

func (e *RestartError) Error() string {
	return fmt.Sprintf("enzo: restart found no clean generation among %d dump(s) (retention %d, %d fallback(s))",
		e.Dumps, e.Generations, e.Fallbacks)
}

// HiddenFraction is the share of dump I/O wall-time hidden behind compute:
// hidden / (hidden + exposed), or 0 when no dump accounting exists.
func (res *Result) HiddenFraction() float64 {
	if tot := res.HiddenWrite + res.ExposedWrite; tot > 0 {
		return res.HiddenWrite / tot
	}
	return 0
}

// Phase returns a named phase duration (0 if absent).
func (res *Result) Phase(name string) float64 {
	for _, p := range res.Phases {
		if p.Name == name {
			return p.Seconds
		}
	}
	return 0
}

// ReadTime is the initial grid read phase.
func (res *Result) ReadTime() float64 { return res.Phase("read") }

// WriteTime is the checkpoint dump phase (sum over dumps).
func (res *Result) WriteTime() float64 { return res.Phase("write") }

// RestartTime is the restart read phase.
func (res *Result) RestartTime() float64 { return res.Phase("restart") }

// IOTime is read + write + restart.
func (res *Result) IOTime() float64 {
	return res.ReadTime() + res.WriteTime() + res.RestartTime()
}

// partition is the rank-local piece of one block-partitioned grid: the
// (Block,Block,Block) sub-block of every baryon field plus the particles
// whose positions fall in this rank's sub-domain. A block is a view of
// wherever its bytes lie: of an array the HDF4 root was lent, of the pieces
// the store lent a two-phase read's aggregators, or packed in a buffer of
// its own (a reader that makes one fills Base). An initial subgrid keeps its
// views until consolidate copies them to the owner; the top grid is rank
// state every dump writes from, so pack packs its blocks once.
type partition struct {
	gridID    int
	sub       mpi.Subarray
	blocks    []mpi.View
	particles amr.ParticleSet
}

// pack replaces every block by its packed bytes and returns p.
func (p *partition) pack() *partition {
	for f, v := range p.blocks {
		p.blocks[f] = mpi.Packed(v.Pack())
	}
	return p
}

// field returns the bytes of field f's block, which pack packed.
func (p *partition) field(f int) []byte {
	v := p.blocks[f]
	if v.Sub != nil || v.Parts != nil {
		panic("enzo: field of an unpacked block")
	}
	return v.Base
}

// Sim is the per-rank simulation state.
type Sim struct {
	r       *mpi.Rank
	fs      pfs.FileSystem
	backend Backend
	hints   mpiio.Hints
	cfg     Config

	// codecReporter is the layer of fs that wants compressed-transfer
	// accounting (nil when none does), resolved once in newSim.
	codecReporter pfs.CodecReporter

	meta    *core.HierarchyMeta
	offsets *core.Layout // fixed shared-file offsets of every array

	// io is the backend's I/O path (layoutFor); async reports that it has
	// nonblocking twins and Config.AsyncIO asked for them.
	io    ioPath
	async bool

	pz, py, px int
	runBuf     []mpi.Run // fieldRuns' result, rebuilt per field
	cellOwners []int32   // ownersByPosition's cell tables, rebuilt per call

	top      *partition
	partials []*partition      // initial subgrid partitions, index gridID-1
	owned    map[int]*amr.Grid // wholly owned subgrids after load balance

	// dumpOwners records which rank holds each subgrid at dump time (the
	// consolidation assignment, extended by refinement); node-local
	// restarts must follow it exactly.
	dumpOwners []int

	// local-disk mode: a node can only read what it wrote.
	localMode     bool
	localPartRows [2]int64         // top-grid particle rows written at the last dump
	localICRows   map[int][2]int64 // per-grid particle rows staged at setup

	// z is the rank's compressor — codec, CPU cost model and the containers
	// of the arrays it has packed — non-nil when transparent field
	// compression is on. chunks is the castore layout's chunk table, by the
	// same array identity (casio.go). Both describe arrays the rank holds
	// and are dropped with them (forgetDerived).
	z      *compress.Compressor
	chunks map[compress.ArrayID]chunkTable
	// onChunkHit, when set, is shown every chunk table before it is reused
	// (a table a dump writer derived ahead of the walk is used, not reused,
	// when the walk first presents its array).
	// Tests set it to split and key again and compare; nothing else does.
	onChunkHit func(raw []byte, t chunkTable)
	// onCasChunk, when set, is shown every chunk a castore read-back fetches:
	// its item and whether the read-ahead's decode was taken (false: the
	// chunk was decoded afresh). onReadAhead is shown every read-ahead as its
	// read-back ends: how many items it decoded and how many of those the
	// walk never fetched. Tests count with them; nothing else sets them.
	onCasChunk  func(item string, ahead bool)
	onReadAhead func(items, unfetched int)
	// ahead is the castore read-back's batch (casio.go), kept for its room.
	ahead readAhead
	// segs is a compressed reader's batch of segments (segsAhead), made by
	// its first reader. onSegsAhead, when set, is shown every such batch as
	// its reader closes: how many segments it held and how many of their
	// decodes the walk never took. Tests count with it (and with
	// Compressor.OnExpand); nothing else sets it.
	segs        *segBatch
	onSegsAhead func(listed, untaken int)

	// ic is the problem's entry in the process-wide hierarchy cache, where
	// setup finds the hierarchy (rank 0), the packed initial conditions of
	// earlier runs (every rank of a compressed run) and snapshot the field
	// hashes of the grids it owns by identity; hierEntry looks it up on
	// first use.
	ic *hierEntry
	// onSnapshot, when set, is shown every snapshot as it is taken, with
	// the IDs of the owned grids whose field hash came from the hierarchy's
	// memo. Tests set it to hash those grids afresh and compare; nothing
	// else does.
	onSnapshot func(snap snapshotState, memo []int)

	// cas is non-nil when checkpoints route through the content-addressed
	// chunk store (Config.CAStore; see casio.go).
	cas *castore.Store

	// Transport state (transport.go, and read only there): pend, when
	// non-nil, defers dump writes into the pending checkpoint; rpend, when
	// non-nil, defers restart reads. nil keeps the transfers blocking.
	pend  *pendingDump
	rpend *pendingRead

	// tolerant turns read-path integrity failures (codec CRC mismatches,
	// unreadable directories) into a damaged flag instead of a panic, so a
	// scrub or fallback restart can reject the generation and move on;
	// damaged records that at least one such failure happened on this rank
	// since the last scrub began.
	tolerant bool
	damaged  bool

	res *Result
}

// compressed reports whether this run compresses field arrays.
func (s *Sim) compressed() bool { return s.z != nil }

// recordCodecBytes forwards logical/physical byte accounting to the file
// system stack when an instrumentation wrapper wants it.
func (s *Sim) recordCodecBytes(file string, write bool, logical, physical int64) {
	if s.codecReporter != nil {
		s.codecReporter.RecordCodecBytes(file, write, logical, physical)
	}
}

// squeeze/expand run the codec on the calling rank's clock; expand appends
// to dst (nil for a fresh buffer) and returns nil on a tolerated failure.
func (s *Sim) squeeze(raw []byte) []byte { return s.z.Squeeze(s.r.Proc(), raw) }

// dumpArrays lists the arrays a dump writes from this rank, in the walk's
// order: its top-grid field partitions, then every owned subgrid's fields
// and, with particles, its particle arrays. Compressed dump writers hand
// them to the compressor's PackAll before the walk presents them.
func (s *Sim) dumpArrays(particles bool) [][]byte {
	arrays := make([][]byte, 0, len(s.top.blocks)+len(s.owned)*(len(amr.FieldNames)+len(amr.ParticleArrays)))
	for fi := range s.top.blocks {
		arrays = append(arrays, s.top.field(fi))
	}
	for _, gm := range s.meta.Subgrids() {
		if grid := s.owned[gm.ID]; grid != nil {
			arrays = append(arrays, grid.Fields...)
			if particles {
				arrays = append(arrays, grid.Particles.Arrays...)
			}
		}
	}
	return arrays
}

// walkSegs shows seg every grid whose field segments the rank's walk
// decodes, with the slots [lo, hi) it decodes them from: its own slot of
// every grid for the initial conditions (each rank's partition segments);
// for a restart its own slot of the top grid, then every slot of each
// subgrid restartOwners gives it (the dump owner's is the one not empty).
func (s *Sim) walkSegs(restart bool, seg func(g core.GridMeta, lo, hi int)) {
	rank := s.r.Rank()
	if !restart {
		for _, g := range s.meta.Grids {
			seg(g, rank, rank+1)
		}
		return
	}
	seg(s.meta.Top(), rank, rank+1)
	owners := s.restartOwners()
	for _, g := range s.meta.Subgrids() {
		if owners[g.ID] == rank {
			seg(g, 0, s.r.Size())
		}
	}
}

// segBatch is the rank's list of the segments a compressed reader's walk
// will decode, kept for its room, with the scratch the HDF5 reader builds
// dataset names in and the stack's pfs.Peeker (nil: none). Only compressed
// runs make one, so the Sim of any other run stays as small as it was.
type segBatch struct {
	segs   [][]byte
	listed int // how many segments the open reader's batch held
	name   []byte
	peeker pfs.Peeker
}

// segBatch returns the rank's segment batch, made at its first use.
func (s *Sim) segBatch() *segBatch {
	if s.segs == nil {
		s.segs = new(segBatch)
		s.segs.peeker, _ = pfs.As[pfs.Peeker](s.fs)
	}
	return s.segs
}

// peekSeg adds to the rank's segment list the stored bytes of segment
// [off, off+n) of file, when one stored extent holds them: the very memory a
// lend read of the segment will be handed. A segment nothing shows is left
// out, and its read decodes it afresh.
func (s *Sim) peekSeg(file string, off, n int64) {
	b := s.segBatch()
	if n == 0 || b.peeker == nil {
		return
	}
	if seg := b.peeker.Peek(s.client(), file, off, n); seg != nil {
		b.segs = append(b.segs, seg)
	}
}

// segsAhead decodes the listed segments in one batch on every core
// (compress.Compressor.ExpandAll), for the reads that are lent them to take.
func (s *Sim) segsAhead() {
	b := s.segBatch()
	b.listed = len(b.segs)
	s.z.ExpandAll(b.segs)
	clear(b.segs)
	b.segs = b.segs[:0]
}

// dropSegsAhead ends a compressed reader's batch of listed segments: the
// decodes its walk did not take are dropped.
func (s *Sim) dropSegsAhead() {
	b := s.segBatch()
	untaken := s.z.DropExpanded()
	if s.onSegsAhead != nil {
		s.onSegsAhead(b.listed, untaken)
	}
	b.listed = 0
}

func (s *Sim) expand(dst, blob []byte) []byte {
	out, err := s.z.Expand(s.r.Proc(), dst, blob)
	if s.tolerate(err) {
		return nil
	}
	return out
}

// tolerate reports whether err was absorbed by tolerant-read mode (marking
// this rank's state damaged). Outside tolerant mode a non-nil err panics,
// preserving the strict behaviour of the normal read paths.
func (s *Sim) tolerate(err error) bool {
	if err == nil {
		return false
	}
	if s.tolerant {
		s.damaged = true
		return true
	}
	panic(err)
}

// tolerantIO runs fn, absorbing an exhausted-retry *mpiio.IOError panic
// when tolerant mode is on: the rank marks its state damaged and reports
// false instead of crashing the engine, so a scrub or generation-fallback
// restart can reject the generation and move on — a dead data server
// during a tolerant read-back behaves like any other integrity failure.
// MPI-IO calls have no error return (matching the real API), so the typed
// error arrives as a panic; outside tolerant mode it propagates unchanged.
func (s *Sim) tolerantIO(fn func()) (ok bool) {
	if !s.tolerant {
		fn()
		return true
	}
	ok = true
	mark := obs.Mark(s.r.Proc())
	defer func() {
		if r := recover(); r != nil {
			if _, isIO := r.(*mpiio.IOError); isIO {
				// The panic skipped the End of every span opened under fn;
				// unwind so tracing survives the absorbed failure.
				obs.Unwind(s.r.Proc(), mark)
				s.damaged = true
				ok = false
				return
			}
			panic(r)
		}
	}()
	fn()
	return ok
}

// client returns this rank's file-system client identity.
func (s *Sim) client() pfs.Client {
	return pfs.Client{Proc: s.r.Proc(), Node: s.r.Node()}
}

// timed runs f between barriers and accumulates the maximum duration
// across ranks into the named phase on rank 0.
func (s *Sim) timed(name string, f func()) {
	s.r.Barrier()
	t0 := s.r.Now()
	sp := obs.Begin(s.r.Proc(), obs.LayerApp, "phase:"+name)
	f()
	sp.End()
	s.r.Barrier()
	dt := s.r.AllreduceFloat64(s.r.Now()-t0, mpi.OpMax)
	if s.r.Rank() == 0 {
		for i := range s.res.Phases {
			if s.res.Phases[i].Name == name {
				s.res.Phases[i].Seconds += dt
				return
			}
		}
		s.res.Phases = append(s.res.Phases, Phase{Name: name, Seconds: dt})
	}
}

// RunSpec names one complete experiment: platform, file system, rank
// count, problem and backend, plus two optional attachments.
type RunSpec struct {
	Machine machine.Config
	FS      string // xfs, gpfs, pvfs or local (see MakeFS)
	Procs   int
	Config  Config
	Backend Backend
	// Wrap, when non-nil, interposes on the bare file system before the run
	// — fault injectors, recorders — without changing the simulation.
	Wrap func(pfs.FileSystem) pfs.FileSystem
	// Tracer, when non-nil, receives every rank's spans (application
	// phases, HDF, MPI-IO, MPI, file system), the Darshan-style per-rank
	// counters and the server queue events; it instruments the wrapped
	// stack. Tracing only reads the virtual clock, so the run's timings are
	// bit-identical to an untraced run.
	Tracer *obs.Tracer
}

// RunOnce is Run with no wrapper and no tracer. Only the frozen bench/ calls
// it; everything else calls Run.
func RunOnce(machCfg machine.Config, fsKind string, nprocs int, cfg Config, backend Backend) (*Result, error) {
	return Run(RunSpec{Machine: machCfg, FS: fsKind, Procs: nprocs, Config: cfg, Backend: backend})
}

// RunOnceTraced is RunOnce with a stack-wide tracer attached. Only the
// frozen bench/ calls it.
func RunOnceTraced(machCfg machine.Config, fsKind string, nprocs int, cfg Config,
	backend Backend, tr *obs.Tracer) (*Result, error) {
	return Run(RunSpec{Machine: machCfg, FS: fsKind, Procs: nprocs, Config: cfg, Backend: backend, Tracer: tr})
}

// Run executes the complete experiment for one configuration and returns
// the timing result: Assemble with one world. Every call builds a fresh
// machine, file system and world, so repeated calls are independent and
// deterministic.
func Run(spec RunSpec) (*Result, error) { return run(spec, nil) }

// run is Run; prepare, which only in-package tests pass, sees every rank's
// Sim before it runs.
func run(spec RunSpec, prepare func(*Sim)) (*Result, error) {
	res := new(Result)
	w := World{Procs: spec.Procs, Config: spec.Config, Backend: spec.Backend, Result: res}
	if prepare != nil {
		w.Body = func(_ *mpi.Rank, _ pfs.FileSystem, s *Sim) { prepare(s); s.Run() }
	}
	a := Allocation{Machine: spec.Machine, FS: spec.FS, Tracer: spec.Tracer}
	if spec.Wrap != nil {
		a.Wrap = func(fs pfs.FileSystem) (pfs.FileSystem, error) { return spec.Wrap(fs), nil }
	}
	if _, err := Assemble(a, w); err != nil {
		if _, failed := err.(*RestartError); failed {
			return res, err
		}
		return nil, err
	}
	return res, nil
}

// An Allocation is the simulated platform every world of an assembled run
// shares: a machine, a file system (a MakeFS kind), an optional wrapper over
// the bare file system and an optional stack-wide tracer.
type Allocation struct {
	Machine machine.Config
	FS      string
	Wrap    func(pfs.FileSystem) (pfs.FileSystem, error)
	Tracer  *obs.Tracer
}

// A World is one MPI job of an assembled run: Procs ranks at Place. A tracer
// numbers its ranks from the sum of the Procs of the worlds before it.
type World struct {
	Procs int
	Place mpi.Placement
	// Result, when non-nil, makes the world an ENZO job of Config and
	// Backend: Assemble checks Config before it builds anything, gives every
	// rank a Sim and fills Result the way Run does.
	Config  Config
	Backend Backend
	Result  *Result
	// View, when non-nil, narrows the shared stack to the world's own view
	// (a namespace prefix).
	View func(pfs.FileSystem) pfs.FileSystem
	// Body is what each rank runs over the world's view; s is the rank's Sim
	// in an ENZO job and nil otherwise. A nil Body runs s.Run().
	Body func(r *mpi.Rank, fs pfs.FileSystem, s *Sim)
}

// Assemble is the one place a simulated run is put together. It checks every
// ENZO world's Config, builds the engine, the machine and the file-system
// stack (MakeFS, then a.Wrap, then the tracer's instrumentation), spawns the
// worlds in order and runs the engine. It returns the makespan; after a
// complete run whose restart found no clean generation, also the first such
// world's *RestartError.
func Assemble(a Allocation, worlds ...World) (float64, error) {
	for _, w := range worlds {
		if w.Result == nil {
			continue
		}
		if _, err := compress.Resolve(w.Config.Codec); err != nil {
			return 0, err
		}
		if err := w.Config.checkFootprint(w.Procs); err != nil {
			return 0, err
		}
	}
	eng := sim.NewEngine()
	mach := machine.New(a.Machine)
	fs, err := MakeFS(a.FS, mach)
	if err != nil {
		return 0, err
	}
	if a.Wrap != nil {
		if fs, err = a.Wrap(fs); err != nil {
			return 0, err
		}
	}
	tr := a.Tracer
	if tr != nil {
		fs = obs.WrapFS(fs, tr)
		mach.SetServeObserver(tr)
	}
	base := 0
	for _, w := range worlds {
		view, rank0 := fs, base
		base += w.Procs
		if w.View != nil {
			view = w.View(fs)
		}
		if w.Result != nil {
			codec := "none"
			if compress.Active(w.Config.Codec) {
				codec = w.Config.Codec
			}
			*w.Result = Result{Problem: w.Config.Problem, Backend: w.Backend, FS: a.FS, Procs: w.Procs, Codec: codec}
		}
		body := w.Body
		if body == nil {
			body = func(_ *mpi.Rank, _ pfs.FileSystem, s *Sim) { s.Run() }
		}
		mpi.NewWorldAt(eng, mach, w.Procs, w.Place, func(r *mpi.Rank) {
			if tr != nil {
				tr.Attach(r.Proc(), rank0+r.Rank())
			}
			var s *Sim
			if w.Result != nil {
				s = newSim(r, view, w.Backend, w.Config, w.Result)
			}
			body(r, view, s)
		})
	}
	if err := eng.Run(); err != nil {
		return 0, err
	}
	var failed error
	for _, w := range worlds {
		if res := w.Result; res != nil {
			res.Makespan, res.Events = eng.MaxTime(), eng.Events()
			if res.restartFailed && failed == nil {
				failed = &RestartError{Dumps: w.Config.Dumps, Generations: w.Config.Generations,
					Fallbacks: res.RestartFallbacks}
			}
		}
	}
	return eng.MaxTime(), failed
}

// dataServers returns the volume's independent data-server count (0 when
// the capability is absent).
func dataServers(fs pfs.FileSystem) int {
	if rv, ok := pfs.As[pfs.ReplicaVolume](fs); ok {
		return rv.NumDataServers()
	}
	return 0
}

// MakeFS builds a file system model by name: xfs, gpfs, pvfs or local.
func MakeFS(kind string, mach *machine.Machine) (pfs.FileSystem, error) {
	switch kind {
	case "xfs":
		return pfs.NewXFS(mach, pfs.DefaultXFS()), nil
	case "gpfs":
		return pfs.NewGPFS(mach, pfs.DefaultGPFS()), nil
	case "pvfs":
		return pfs.NewPVFS(mach, pfs.DefaultPVFS()), nil
	case "local":
		return pfs.NewLocalFS(mach, pfs.DefaultLocal()), nil
	}
	return nil, fmt.Errorf("enzo: unknown file system %q", kind)
}

// newSim builds the per-rank state. hints follow ROMIO defaults, with
// cb_nodes set to one aggregator per physical node (ROMIO's host-based
// default).
func newSim(r *mpi.Rank, fs pfs.FileSystem, backend Backend, cfg Config, res *Result) *Sim {
	hints := mpiio.DefaultHints()
	nodes := map[int]bool{}
	for i := 0; i < r.Size(); i++ {
		nodes[r.World().Node(i)] = true
	}
	hints.CBNodes = len(nodes)
	if cfg.CBNodes > 0 {
		hints.CBNodes = cfg.CBNodes
	}
	if cfg.CBBufferSize > 0 {
		hints.CBBufferSize = cfg.CBBufferSize
	}
	if cfg.SieveBufferSize > 0 {
		hints.DSBufferSize = cfg.SieveBufferSize
	}
	switch {
	case cfg.DataSieving > 0:
		hints.DataSieving = true
	case cfg.DataSieving < 0:
		hints.DataSieving = false
	}
	if backend == BackendMPIIOCB {
		hints.CBForce = true
	}
	if cfg.IORetry.Enabled {
		hints.Retry = cfg.IORetry
	}
	pz, py, px := mpi.ProcGrid3D(r.Size())
	s := &Sim{
		r: r, fs: fs, backend: backend, hints: hints, cfg: cfg,
		pz: pz, py: py, px: px,
		owned:     make(map[int]*amr.Grid),
		localMode: fs.Name() == "local",
		res:       res,
	}
	s.codecReporter, _ = pfs.As[pfs.CodecReporter](fs)
	s.cfg.normalize(dataServers(fs))
	s.io = layoutFor(s)
	return s
}

// Run performs the whole measured flow.
func (s *Sim) Run() {
	s.setup()
	statsBefore := s.fs.Stats()

	s.timed("read", s.readInitial)
	s.timed("evolve", s.evolve)

	snap := s.snapshot()

	s.timed("write", func() {
		for d := 0; d < s.cfg.Dumps; d++ {
			s.checkpoint(d)
		}
	})

	if s.cfg.ScrubOnDump {
		s.timed("scrub", func() { s.scrubDumps(snap) })
	}

	// The dump state goes, and what was derived from it goes with it, before
	// the restart is read: the memo never pins dump state beside restart
	// state. (Not inside clearState: a scrub's read-back clears too, then
	// puts the live state back, and the re-dump that may follow presents the
	// same arrays again.)
	s.clearState()
	s.forgetDerived()
	s.timed("restart", func() {
		if s.cfg.ScrubOnDump {
			s.restartNewestClean()
		} else {
			s.readRestart(s.cfg.Dumps - 1)
		}
	})

	verified := s.verify(snap)
	statsAfter := s.fs.Stats()
	if s.r.Rank() == 0 {
		s.res.Verified = verified
		s.res.BytesRead = statsAfter.BytesRead - statsBefore.BytesRead
		s.res.BytesWritten = statsAfter.BytesWritten - statsBefore.BytesWritten
		s.res.Grids = len(s.meta.Grids)
	}
	if s.cas != nil {
		st := s.cas.Stats()
		puts := s.r.AllreduceInt64(st.ChunkPuts, mpi.OpSum)
		hits := s.r.AllreduceInt64(st.ChunkHits, mpi.OpSum)
		logical := s.r.AllreduceInt64(st.LogicalBytes, mpi.OpSum)
		physical := s.r.AllreduceInt64(st.PhysicalBytes, mpi.OpSum)
		deduped := s.r.AllreduceInt64(st.DedupedBytes, mpi.OpSum)
		failovers := s.r.AllreduceInt64(st.Failovers, mpi.OpSum)
		if s.r.Rank() == 0 {
			s.res.CASChunkPuts = puts
			s.res.CASChunkHits = hits
			s.res.CASLogicalBytes = logical
			s.res.CASPhysicalBytes = physical
			s.res.CASDedupedBytes = deduped
			s.res.CASFailovers = failovers
		}
	}
}

// setup (untimed): rank 0 builds the hierarchy in memory and writes the
// initial-condition files plus the replicated hierarchy metadata.
func (s *Sim) setup() {
	defer obs.Begin(s.r.Proc(), obs.LayerApp, "phase:setup").End()
	var h *amr.Hierarchy
	var enc []byte
	if s.r.Rank() == 0 {
		h = s.hierEntry().hierarchy()
		s.meta = core.FromHierarchy(h)
		enc = s.meta.Encode()
		// The ".hierarchy" metadata file: tiny, written by rank 0.
		f, err := s.fs.Create(s.client(), "ic.hierarchy")
		if err != nil {
			panic(err)
		}
		f.WriteAt(s.client(), enc, 0)
		f.Close(s.client())
		enc = s.r.Bcast(0, enc)
	} else {
		enc = s.r.Bcast(0, nil)
		m, err := core.DecodeHierarchyMeta(enc)
		if err != nil {
			panic(err)
		}
		s.meta = m
	}
	s.offsets = core.NewLayout(s.meta)
	s.io.writeIC(h)
	s.forgetDerived() // the partitions just staged are never presented again
	s.r.Barrier()
}

func (s *Sim) readInitial() { s.io.readInitial() }

// writeDump writes dump generation d through the backend's I/O path, after
// the dump-time hierarchy metadata.
func (s *Sim) writeDump(d int) {
	// Key the span by generation: aggregated counters for "dump" alone
	// collide across generations, which made re-dump cost unattributable.
	defer obs.Begin(s.r.Proc(), obs.LayerApp, fmt.Sprintf("dump:%02d", d)).End()
	s.writeDumpHierarchy(d)
	s.io.writeDump(d)
}

// assignSubgrids maps every subgrid to its post-load-balance owner with
// the greedy work-balanced policy over the replicated metadata, so all
// ranks compute identical assignments without communication.
func (s *Sim) assignSubgrids() []int {
	subs := s.meta.Subgrids()
	order := make([]int, len(subs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := subs[order[a]].Cells(), subs[order[b]].Cells()
		if ca != cb {
			return ca > cb
		}
		return order[a] < order[b]
	})
	owners := make([]int, len(s.meta.Grids)) // indexed by grid ID; 0 unused
	load := make([]int64, s.r.Size())
	for _, i := range order {
		best := 0
		for p := 1; p < s.r.Size(); p++ {
			if load[p] < load[best] {
				best = p
			}
		}
		owners[subs[i].ID] = best
		load[best] += subs[i].Cells()
	}
	return owners
}

// restartOwners maps subgrids to restart readers: round-robin per the
// paper, except on node-local disks where only the dump writer has the
// bytes.
func (s *Sim) restartOwners() []int {
	if s.localMode {
		return s.dumpOwners
	}
	owners := make([]int, len(s.meta.Grids))
	for i, g := range s.meta.Subgrids() {
		owners[g.ID] = i % s.r.Size()
	}
	return owners
}

// evolve models the computation between dumps: the load-balance
// consolidation of the block-partitioned initial subgrids onto their
// owners, plus the hydrodynamics work on owned cells.
func (s *Sim) evolve() {
	owners := s.assignSubgrids()
	s.dumpOwners = owners
	for _, g := range s.meta.Subgrids() {
		p := s.partials[g.ID-1]
		grid := s.consolidate(g, p, owners[g.ID])
		if grid != nil {
			s.owned[g.ID] = grid
		}
	}
	s.partials = nil
	s.r.Compute(s.localCells() * s.cfg.FlopsPerCell)
	for i := 0; i < s.cfg.RefineCycles; i++ {
		s.refineOwned()
	}
}

// localCells returns the cells this rank evolves per cycle — the count
// the evolve phase computes on, reused for a deferred dump's overlapped
// step.
func (s *Sim) localCells() int64 {
	var cells int64
	if s.top != nil {
		cells += s.top.sub.NumElems()
	}
	for _, g := range s.owned {
		cells += g.Cells()
	}
	return cells
}

// consolidate gathers one block-partitioned subgrid onto its owner,
// returning the assembled grid there (nil elsewhere). Every block travels
// as a view, so the owner copies each run once, from wherever the block
// lies into its place in the grid — or not at all: where every block is
// already the initial-condition array's own memory (a shared file that
// stores the hierarchy's arrays by reference and lent them back), the
// owner adopts that array. Adoption is decided by address (View.InPlace),
// so a stale overlay, a corrupted or missing extent and a provisioned or
// compressed partition, all copies, take the copying path. An owned grid
// is read-only either way (DESIGN.md §13): it may be the hierarchy every
// later run of the problem in the process reads. The modelled copy is
// charged on both paths.
func (s *Sim) consolidate(g core.GridMeta, p *partition, owner int) *amr.Grid {
	var grid *amr.Grid
	var subs []mpi.Subarray
	var ic [][]byte
	if s.r.Rank() == owner {
		grid, subs = newGrid(g), s.rankSubarrays(g)
		ic = s.hierEntry().hierarchy().Grids[g.ID].Fields
	}
	for f := range amr.FieldNames {
		blocks := s.r.Gatherv(owner, p.blocks[f])
		if s.r.Rank() == owner {
			full := ic[f]
			if !allInPlace(full, blocks, subs) {
				full = make([]byte, g.Cells()*amr.FieldElemSize)
				for rank, blk := range blocks {
					blk.UnpackTo(full, subs[rank])
				}
			}
			s.r.CopyCost(g.Cells() * amr.FieldElemSize)
			grid.Fields[f] = full
		}
	}
	gathered := s.r.Gatherv(owner, mpi.Packed(columnBlocked(&p.particles)))
	if s.r.Rank() == owner {
		grid.Particles = gatherColumns(gathered)
	}
	return grid
}

// allInPlace reports whether every rank's block is already full's own memory
// at its place in the grid, so that unpacking them all would change nothing.
// A full of another length than the grid's is never in place.
func allInPlace(full []byte, blocks []mpi.View, subs []mpi.Subarray) bool {
	for rank, blk := range blocks {
		if !blk.InPlace(full, subs[rank]) {
			return false
		}
	}
	return true
}

// rankSubarrays returns every rank's (Block,Block,Block) piece of grid g's
// fields, indexed by rank: the one rank that packs, scatters or assembles
// all of a grid's blocks computes them once per grid, not once per field.
func (s *Sim) rankSubarrays(g core.GridMeta) []mpi.Subarray {
	subs := make([]mpi.Subarray, s.r.Size())
	for rank := range subs {
		subs[rank] = core.FieldSubarray(g, s.pz, s.py, s.px, rank)
	}
	return subs
}

func (s *Sim) clearState() {
	s.top = nil
	s.partials = nil
	s.owned = make(map[int]*amr.Grid)
}

// forgetDerived drops what the rank remembers about arrays it is letting go:
// packed containers and chunk tables, keyed by array identity, keep their
// arrays reachable for as long as they are remembered.
func (s *Sim) forgetDerived() {
	if s.z != nil {
		s.z.Forget()
	}
	clear(s.chunks)
}

// --- verification ---

type snapshotState struct {
	topFields    uint64
	topParticles uint64
	topCount     int64
	grids        map[int]uint64
}

// Verification hashing. The values are internal — only the Verified bool
// ever leaves a run — so the function is chosen for speed: an FNV-1a
// variant that folds 8 input bytes per multiply instead of one, over four
// independent lanes, which makes the dump/restart comparison far cheaper
// than the byte-serial stdlib FNV while staying deterministic across
// machines (little-endian word loads from explicitly little-endian data).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hashBytes(h64 uint64, b []byte) uint64 {
	h := (fnvOffset64 ^ h64) * fnvPrime64
	// Mixing the length first makes the zero-padded tail unambiguous.
	h ^= uint64(len(b))
	h *= fnvPrime64
	if len(b) >= 32 {
		// One xor-multiply chain is a serial dependency per word; four
		// chains over 32-byte blocks keep the multiplier busy. The lanes
		// start from distinct seeds and are folded in with the same step,
		// which is a bijection in each lane: a difference confined to one
		// lane always changes the result.
		l0, l1, l2, l3 := h, h*fnvPrime64, h^fnvOffset64, ^h
		for ; len(b) >= 32; b = b[32:] {
			l0 = (l0 ^ binary.LittleEndian.Uint64(b)) * fnvPrime64
			l1 = (l1 ^ binary.LittleEndian.Uint64(b[8:])) * fnvPrime64
			l2 = (l2 ^ binary.LittleEndian.Uint64(b[16:])) * fnvPrime64
			l3 = (l3 ^ binary.LittleEndian.Uint64(b[24:])) * fnvPrime64
		}
		for _, l := range [...]uint64{l0, l1, l2, l3} {
			h = (h ^ l) * fnvPrime64
		}
	}
	for len(b) >= 8 {
		h ^= binary.LittleEndian.Uint64(b)
		h *= fnvPrime64
		b = b[8:]
	}
	if len(b) > 0 {
		var tail uint64
		for i, c := range b {
			tail |= uint64(c) << (8 * i)
		}
		h ^= tail
		h *= fnvPrime64
	}
	return h
}

// particleSetHash hashes a particle set order-independently (sum of
// per-row hashes), so redistribution order does not matter. Each row is
// hashed a word per array — the row's elements in array order, without
// materializing the row.
func particleSetHash(ps *amr.ParticleSet) uint64 {
	h0 := uint64(fnvOffset64)
	h0 *= fnvPrime64
	h0 ^= rowBytes
	h0 *= fnvPrime64
	le, n := binary.LittleEndian, ps.N
	id, x, y, z := ps.Arrays[0][:8*n], ps.Arrays[1][:8*n], ps.Arrays[2][:8*n], ps.Arrays[3][:8*n]
	vx, vy, vz, m := ps.Arrays[4][:4*n], ps.Arrays[5][:4*n], ps.Arrays[6][:4*n], ps.Arrays[7][:4*n]
	var sum uint64
	for i := 0; i < n; i++ {
		h := (h0 ^ le.Uint64(id[8*i:])) * fnvPrime64
		h = (h ^ le.Uint64(x[8*i:])) * fnvPrime64
		h = (h ^ le.Uint64(y[8*i:])) * fnvPrime64
		h = (h ^ le.Uint64(z[8*i:])) * fnvPrime64
		h = (h ^ uint64(le.Uint32(vx[4*i:]))) * fnvPrime64
		h = (h ^ uint64(le.Uint32(vy[4*i:]))) * fnvPrime64
		h = (h ^ uint64(le.Uint32(vz[4*i:]))) * fnvPrime64
		h = (h ^ uint64(le.Uint32(m[4*i:]))) * fnvPrime64
		sum += h
	}
	return sum
}

// fieldsHash chains hashBytes over a grid's fields in field order.
func fieldsHash(fields [][]byte) uint64 {
	var h uint64
	for _, f := range fields {
		h = hashBytes(h, f)
	}
	return h
}

func gridHash(g *amr.Grid) uint64 {
	return fieldsHash(g.Fields) + particleSetHash(&g.Particles)
}

// snapshot hashes the rank's state: the top grid's blocks and particles,
// and every owned grid whole. An owned grid whose fields are its hierarchy
// grid's own arrays — the shared-file, uncompressed rows, where the owner
// adopted them before the dump and the restart was lent them back — takes
// its field hash from the hierarchy's memo, so those immutable arrays are
// hashed once per process, not twice per run; its particles, always a
// fresh set, are hashed here. Every other grid is hashed byte for byte.
func (s *Sim) snapshot() snapshotState {
	snap := snapshotState{grids: make(map[int]uint64, len(s.owned))}
	if s.top != nil {
		var h uint64
		for f := range s.top.blocks {
			h = hashBytes(h, s.top.field(f))
		}
		snap.topFields = h
		snap.topParticles = particleSetHash(&s.top.particles)
		snap.topCount = int64(s.top.particles.N)
	}
	var memo []int
	for id, g := range s.owned {
		h, hit := s.hierEntry().fieldHash(id, g.Fields)
		if !hit {
			h = fieldsHash(g.Fields)
		} else if s.onSnapshot != nil {
			memo = append(memo, id)
		}
		snap.grids[id] = h + particleSetHash(&g.Particles)
	}
	if s.onSnapshot != nil {
		s.onSnapshot(snap, memo)
	}
	return snap
}

// verify compares the restart state against the pre-dump snapshot. Field
// blocks must match per rank (the decomposition is identical); particles
// must match as a per-rank multiset; subgrid hashes are compared globally
// because restart ownership differs from dump ownership. A restarted grid
// takes the memo only when its arrays are its own hierarchy grid's memory,
// which no run writes (DESIGN.md §13), so it holds the dumped bytes; any
// other array — a wrong grid's, a corrupted, dropped or torn extent, a
// stale overlay — is hashed byte for byte.
func (s *Sim) verify(snap snapshotState) bool {
	now := s.snapshot()
	localOK := int64(1)
	if now.topFields != snap.topFields || now.topParticles != snap.topParticles ||
		now.topCount != snap.topCount {
		localOK = 0
	}
	// Exchange (gridID, hash) pairs via gather on rank 0.
	before := s.r.Gatherv(0, mpi.Packed(encGridHashes(snap.grids)))
	after := s.r.Gatherv(0, mpi.Packed(encGridHashes(now.grids)))
	if s.r.Rank() == 0 {
		b, a := decGridHashes(before), decGridHashes(after)
		if len(b) != len(a) {
			localOK = 0
		}
		for id, h := range b {
			if a[id] != h {
				localOK = 0
			}
		}
	}
	return s.r.AllreduceInt64(localOK, mpi.OpMin) == 1
}
