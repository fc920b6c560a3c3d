// Package diag is the diagnosis layer: it turns one traced run's raw
// telemetry (obs spans, Darshan-style counters, server queue events) into a
// machine-readable Report, a ranked list of Findings with severities and
// tuning advice, candidate mpiio.Hints deltas (Suggest) and report-vs-report
// regression attribution (Diff).
//
// This automates what the source paper did by hand: its optimizations all
// came from reading the instrumentation — tiny scattered writes and a
// collective-buffering misconfiguration dominated dump time. Every detector
// here encodes one of those manual readings; DESIGN.md §11 documents the
// definitions, thresholds and severity rubric.
//
// Everything is computed from deterministic virtual-time telemetry with
// sorted iteration and stable formatting, so reports and findings are
// byte-identical across repeated runs of the same configuration.
package diag

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/enzo"
	"repro/internal/obs"
)

// RunMeta identifies the run a report describes and carries the
// result-level aggregates the detectors need.
type RunMeta struct {
	Machine  string `json:"machine,omitempty"`
	Problem  string `json:"problem,omitempty"`
	FS       string `json:"fs,omitempty"`
	Backend  string `json:"backend,omitempty"`
	Codec    string `json:"codec,omitempty"`
	Procs    int    `json:"procs"`
	Async    bool   `json:"async"`
	Scrub    bool   `json:"scrub"`
	CAStore  bool   `json:"castore,omitempty"`
	Replicas int    `json:"replicas,omitempty"`

	Verified bool    `json:"verified"`
	Makespan float64 `json:"makespan_seconds"`

	Phases []PhaseSecs `json:"phases,omitempty"`

	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`

	ExposedWrite float64 `json:"exposed_write_seconds"`
	HiddenWrite  float64 `json:"hidden_write_seconds"`
	ExposedRead  float64 `json:"exposed_read_seconds"`
	HiddenRead   float64 `json:"hidden_read_seconds"`

	ScrubFailures    int `json:"scrub_failures"`
	Redumps          int `json:"redumps"`
	RestartFallbacks int `json:"restart_fallbacks"`
}

// PhaseSecs is one application phase's duration (max across ranks, summed
// over repetitions — enzo's Result.Phases convention).
type PhaseSecs struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// Phase returns a named phase duration (0 if absent).
func (m RunMeta) Phase(name string) float64 {
	for _, p := range m.Phases {
		if p.Name == name {
			return p.Seconds
		}
	}
	return 0
}

// FSGeom is the file-system geometry context (from obs.FSInfo).
type FSGeom struct {
	Name            string `json:"name,omitempty"`
	DataServers     int    `json:"data_servers"`
	StripeUnitBytes int64  `json:"stripe_unit_bytes"`
}

// HintSet is the normalized MPI-IO hint set one file was opened with.
type HintSet struct {
	File             string `json:"file"`
	CBNodes          int    `json:"cb_nodes"`
	CBBufferBytes    int64  `json:"cb_buffer_bytes"`
	SieveBufferBytes int64  `json:"sieve_buffer_bytes"`
	DataSieving      bool   `json:"data_sieving"`
	CBForce          bool   `json:"cb_force"`
	RetryEnabled     bool   `json:"retry_enabled"`
	RetryMaxAttempts int    `json:"retry_max_attempts,omitempty"`
}

// Cell is one (phase, layer) entry of the critical-path matrix: the
// aggregate exclusive (self, child-free) virtual time spent in that stack
// layer while that application phase was open, summed over ranks.
type Cell struct {
	Phase   string  `json:"phase"`
	Layer   string  `json:"layer"`
	Seconds float64 `json:"seconds"`
	Bytes   int64   `json:"bytes,omitempty"`
}

// RankIO is one rank's I/O-stack time: exclusive virtual seconds in the
// hdf, mpiio and pfs layers (communication and compute excluded). Async
// drain waits park in app-layer spans and are not included.
type RankIO struct {
	Rank    int     `json:"rank"`
	Seconds float64 `json:"io_seconds"`
}

// ServerLoad summarizes one sim.Server's request stream.
type ServerLoad struct {
	Name        string  `json:"name"`
	Class       string  `json:"class"` // name with digit runs removed; groups peers
	Requests    int     `json:"requests"`
	BusySeconds float64 `json:"busy_seconds"`
	WaitSeconds float64 `json:"wait_seconds"`
	WaitMax     float64 `json:"wait_max_seconds"`
}

// GenStat aggregates the per-generation checkpoint spans (dump:NN,
// redump:NN.t, scrub:NN): Seconds is rank-seconds (durations summed over
// ranks). dump:NN spans nested under a redump are excluded from the dump
// row — their cost is the redump row.
type GenStat struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	Seconds float64 `json:"seconds"`
}

// Traffic relates logical I/O (bytes applications asked the MPI-IO layer
// to move, counted on top-level data spans only) to physical I/O (bytes
// the pfs layer actually moved, from the Darshan-style counters).
type Traffic struct {
	LogicalReadBytes   int64 `json:"logical_read_bytes"`
	LogicalWriteBytes  int64 `json:"logical_write_bytes"`
	PhysicalReadBytes  int64 `json:"physical_read_bytes"`
	PhysicalWriteBytes int64 `json:"physical_write_bytes"`
	CollectiveOps      int64 `json:"collective_ops"`
	IndependentOps     int64 `json:"independent_ops"`
}

// SizeProfile classifies pfs request sizes against the stripe unit.
type SizeProfile struct {
	ThresholdBytes int64   `json:"threshold_bytes"`
	Requests       int64   `json:"requests"`
	SmallRequests  int64   `json:"small_requests"`
	AvgBytes       float64 `json:"avg_request_bytes"`
}

// DedupStat summarizes the content-addressed store's activity: how many
// raw bytes the dumps presented, how many payload bytes actually hit the
// devices (summed over replicas), and how many were elided because an
// identical chunk already existed in a retained generation.
type DedupStat struct {
	ChunkPuts     int64 `json:"chunk_puts"`
	ChunkHits     int64 `json:"chunk_hits"`
	LogicalBytes  int64 `json:"logical_bytes"`
	PhysicalBytes int64 `json:"physical_bytes"`
	DedupedBytes  int64 `json:"deduped_bytes"`
	ChunkGets     int64 `json:"chunk_gets"`
	Failovers     int64 `json:"failovers"`
}

// JobIO is one tenant job's slice of a multi-job (shared-cluster) run:
// its I/O time inside the fleet against the same job run alone, and the
// resulting slowdown. Rows keep the fleet's job order, which is fixed by
// the fleet spec, so repeated reports are byte-identical.
type JobIO struct {
	Name      string  `json:"name"`
	Kind      string  `json:"kind"`
	Problem   string  `json:"problem,omitempty"`
	Procs     int     `json:"procs"`
	StartSec  float64 `json:"start_sec"`
	Weight    float64 `json:"weight"`
	IOSeconds float64 `json:"io_seconds"`
	AloneSec  float64 `json:"alone_seconds"`
	Slowdown  float64 `json:"slowdown"`
	Verified  bool    `json:"verified"`
}

// Report is the machine-readable diagnosis input: everything the detectors
// read, in one deterministic structure. It is also ioreport's -format json
// payload.
type Report struct {
	Meta        RunMeta      `json:"meta"`
	FS          FSGeom       `json:"fs"`
	Hints       []HintSet    `json:"hints,omitempty"`
	Matrix      []Cell       `json:"matrix,omitempty"`
	Ranks       []RankIO     `json:"ranks,omitempty"`
	Servers     []ServerLoad `json:"servers,omitempty"`
	Generations []GenStat    `json:"generations,omitempty"`
	Dedup       *DedupStat   `json:"dedup,omitempty"`
	Jobs        []JobIO      `json:"jobs,omitempty"`
	Traffic     Traffic      `json:"traffic"`
	Sizes       SizeProfile  `json:"sizes"`
	Timeouts    int64        `json:"timeouts"`
	Retries     int64        `json:"retries"`
}

// Document is the machine-readable output bundle the CLIs emit with
// -format json: the report plus its analysis.
type Document struct {
	Report      *Report      `json:"report"`
	Findings    []Finding    `json:"findings"`
	Suggestions []HintsDelta `json:"suggestions,omitempty"`
}

// MetaFromResult builds a RunMeta from an enzo run's result and config.
func MetaFromResult(machineName string, res *enzo.Result, cfg enzo.Config) RunMeta {
	m := RunMeta{
		Machine:  machineName,
		Problem:  res.Problem,
		FS:       res.FS,
		Backend:  res.Backend.String(),
		Codec:    res.Codec,
		Procs:    res.Procs,
		Async:    cfg.AsyncIO,
		Scrub:    cfg.ScrubOnDump,
		CAStore:  cfg.CAStore,
		Verified: res.Verified,
		Makespan: res.Makespan,

		BytesRead:    res.BytesRead,
		BytesWritten: res.BytesWritten,

		ExposedWrite: res.ExposedWrite,
		HiddenWrite:  res.HiddenWrite,
		ExposedRead:  res.ExposedRead,
		HiddenRead:   res.HiddenRead,

		ScrubFailures:    res.ScrubFailures,
		Redumps:          res.Redumps,
		RestartFallbacks: res.RestartFallbacks,
	}
	if cfg.CAStore {
		m.Replicas = cfg.Replicas
	}
	for _, p := range res.Phases {
		m.Phases = append(m.Phases, PhaseSecs{Name: p.Name, Seconds: p.Seconds})
	}
	return m
}

// mpiio span names that carry application-requested bytes. A nested
// occurrence (a collective falling back to the independent path) must not
// double-count, so Snapshot only counts spans with no mpiio data-span
// ancestor.
var mpiioDataOps = map[string]bool{
	"write_indep": true, "read_indep": true,
	"write_runs": true, "read_runs": true, "read_sieve": true,
	"write_all": true, "read_all": true,
	"iwrite_indep": true, "iwrite_runs": true,
	"iread_indep": true, "iread_runs": true,
	"write_all_begin": true, "read_all_begin": true,
	"write_list": true, "read_list": true,
	"iwrite_list": true, "iread_list": true,
}

var mpiioCollectiveOps = map[string]bool{
	"write_all": true, "read_all": true,
	"write_all_begin": true, "read_all_begin": true,
}

func isReadOp(name string) bool { return strings.Contains(name, "read") }

// Snapshot distills a tracer's raw telemetry into a Report. meta supplies
// the result-level context (pass a zero RunMeta if unavailable); the
// tracer may be empty — every table simply comes out empty.
func Snapshot(tr *obs.Tracer, meta RunMeta) *Report {
	rep := &Report{Meta: meta}
	if tr == nil {
		return rep
	}
	fi := tr.FSInfo()
	rep.FS = FSGeom{Name: fi.Name, DataServers: fi.DataServers, StripeUnitBytes: fi.StripeUnit}
	for _, h := range tr.Hints() {
		rep.Hints = append(rep.Hints, HintSet{
			File:             h.File,
			CBNodes:          h.CBNodes,
			CBBufferBytes:    h.CBBufferSize,
			SieveBufferBytes: h.DSBufferSize,
			DataSieving:      h.DataSieving,
			CBForce:          h.CBForce,
			RetryEnabled:     h.RetryEnabled,
			RetryMaxAttempts: h.RetryMaxAttempts,
		})
	}
	sort.Slice(rep.Hints, func(i, j int) bool { return rep.Hints[i].File < rep.Hints[j].File })

	snapshotSpans(tr, rep)
	snapshotCounters(tr, rep)
	snapshotServers(tr, rep)
	snapshotDedup(tr, rep)
	return rep
}

// snapshotDedup folds the content-addressed store counters in; the section
// stays absent for runs that never touched a castore.
func snapshotDedup(tr *obs.Tracer, rep *Report) {
	dt := tr.DedupTotals()
	if dt.ChunkPuts == 0 && dt.ChunkGets == 0 {
		return
	}
	rep.Dedup = &DedupStat{
		ChunkPuts:     dt.ChunkPuts,
		ChunkHits:     dt.ChunkHits,
		LogicalBytes:  dt.LogicalBytes,
		PhysicalBytes: dt.PhysicalBytes,
		DedupedBytes:  dt.DedupedBytes,
		ChunkGets:     dt.ChunkGets,
		Failovers:     dt.Failovers,
	}
}

// snapshotSpans walks the span forest once per rank, computing the
// phase×layer exclusive-time matrix, per-rank I/O time, logical mpiio
// traffic and the per-generation checkpoint stats. It reads the tracer's own
// per-rank slices (Span.Parent indexes within one), ranks ascending and
// spans in begin order: every float below sums in that order.
func snapshotSpans(tr *obs.Tracer, rep *Report) {
	cells := map[[2]string]*Cell{}
	gens := map[string]*GenStat{}
	for rank, rs := range tr.SpansByRank() {
		if len(rs) == 0 {
			continue
		}
		childDur := make([]float64, len(rs))
		phase := make([]string, len(rs))     // owning phase name, "" outside phases
		underData := make([]bool, len(rs))   // has an mpiio data-span ancestor
		underRedump := make([]bool, len(rs)) // has a redump:* ancestor
		var io RankIO
		io.Rank = rank
		for i := range rs {
			sp := &rs[i]
			if sp.Parent >= 0 {
				childDur[sp.Parent] += sp.Dur()
				phase[i] = phase[sp.Parent]
				p := &rs[sp.Parent]
				underData[i] = underData[sp.Parent] ||
					(p.Layer == obs.LayerMPIIO && mpiioDataOps[p.Name])
				underRedump[i] = underRedump[sp.Parent] ||
					(p.Layer == obs.LayerApp && strings.HasPrefix(p.Name, "redump:"))
			}
			if sp.Layer == obs.LayerApp && strings.HasPrefix(sp.Name, "phase:") {
				phase[i] = strings.TrimPrefix(sp.Name, "phase:")
			}
		}
		for i := range rs {
			sp := &rs[i]
			excl := sp.Dur() - childDur[i]
			if excl < 0 {
				excl = 0
			}
			ph := phase[i]
			if ph == "" {
				ph = "(outside)"
			}
			key := [2]string{ph, sp.Layer.String()}
			c := cells[key]
			if c == nil {
				c = &Cell{Phase: key[0], Layer: key[1]}
				cells[key] = c
			}
			c.Seconds += excl
			c.Bytes += sp.Bytes

			switch sp.Layer {
			case obs.LayerHDF, obs.LayerMPIIO, obs.LayerPFS:
				io.Seconds += excl
			}

			if sp.Layer == obs.LayerMPIIO && mpiioDataOps[sp.Name] && !underData[i] {
				if mpiioCollectiveOps[sp.Name] {
					rep.Traffic.CollectiveOps++
				} else {
					rep.Traffic.IndependentOps++
				}
				if isReadOp(sp.Name) {
					rep.Traffic.LogicalReadBytes += sp.Bytes
				} else {
					rep.Traffic.LogicalWriteBytes += sp.Bytes
				}
			}

			if sp.Layer == obs.LayerApp && isGenSpan(sp.Name) {
				if strings.HasPrefix(sp.Name, "dump:") && underRedump[i] {
					continue // cost already inside the redump:* row
				}
				g := gens[sp.Name]
				if g == nil {
					g = &GenStat{Name: sp.Name}
					gens[sp.Name] = g
				}
				g.Count++
				g.Seconds += sp.Dur()
			}
		}
		rep.Ranks = append(rep.Ranks, io)
	}

	for _, c := range cells {
		rep.Matrix = append(rep.Matrix, *c)
	}
	sort.Slice(rep.Matrix, func(i, j int) bool {
		a, b := rep.Matrix[i], rep.Matrix[j]
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		return a.Layer < b.Layer
	})
	for _, g := range gens {
		rep.Generations = append(rep.Generations, *g)
	}
	sort.Slice(rep.Generations, func(i, j int) bool {
		return rep.Generations[i].Name < rep.Generations[j].Name
	})
}

func isGenSpan(name string) bool {
	return strings.HasPrefix(name, "dump:") ||
		strings.HasPrefix(name, "redump:") ||
		strings.HasPrefix(name, "scrub:")
}

// snapshotCounters folds the Darshan-style counters into physical traffic,
// the request-size profile and the fault totals.
func snapshotCounters(tr *obs.Tracer, rep *Report) {
	unit := rep.FS.StripeUnitBytes
	if unit <= 0 {
		unit = 64 * 1024 // unstriped: judge against a nominal efficient size
	}
	rep.Sizes.ThresholdBytes = unit
	var hist [obs.NumSizeBuckets]int64
	for _, fc := range tr.Counters() {
		rep.Traffic.PhysicalReadBytes += fc.BytesRead
		rep.Traffic.PhysicalWriteBytes += fc.BytesWritten
		rep.Timeouts += fc.Timeouts
		rep.Retries += fc.Retries
		rep.Sizes.Requests += fc.Reads + fc.Writes
		for b, n := range fc.SizeHist {
			hist[b] += n
		}
	}
	// Bucket b holds sizes in [2^b, 2^(b+1)); a bucket is "small" when its
	// whole range lies below the stripe unit.
	for b, n := range hist {
		if int64(1)<<uint(b+1) <= unit {
			rep.Sizes.SmallRequests += n
		}
	}
	if rep.Sizes.Requests > 0 {
		rep.Sizes.AvgBytes = float64(rep.Traffic.PhysicalReadBytes+rep.Traffic.PhysicalWriteBytes) /
			float64(rep.Sizes.Requests)
	}
}

// snapshotServers summarizes the per-server queue streams. Class strips
// digit runs from the name ("pvfs/iod3/disk" -> "pvfs/iod/disk") so
// detectors can compare a server against its peers.
func snapshotServers(tr *obs.Tracer, rep *Report) {
	for _, st := range tr.ServerStats() {
		rep.Servers = append(rep.Servers, ServerLoad{Name: st.Name, Class: serverClass(st.Name),
			Requests: int(st.Requests), BusySeconds: st.Busy, WaitSeconds: st.WaitSum, WaitMax: st.WaitMax})
	}
	sort.Slice(rep.Servers, func(i, j int) bool { return rep.Servers[i].Name < rep.Servers[j].Name })
}

func serverClass(name string) string {
	var b strings.Builder
	for _, r := range name {
		if r >= '0' && r <= '9' {
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

// fmtBytes renders a byte count compactly for finding text.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dGiB", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}
