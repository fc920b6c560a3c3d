// Package tenant runs several jobs concurrently on one simulated
// machine — the shared-cluster reality the single-job experiments
// idealize away. Each job is one world of an enzo.Assemble run, on its
// own node allocation (an mpi.Placement) and its own namespace slice of the
// shared file system (pfs.WrapPrefix), but every byte still crosses the
// same data servers, disks and NICs, so tenants contend exactly where
// production jobs do.
//
// The package measures what a batch user feels: per-job slowdown, the
// ratio of a job's I/O time in the contended fleet to the same job's
// I/O time run alone on an idle machine. A server-side scheduling
// policy (sim.FairQueue installed through SetSchedPolicy) bounds how
// badly a bursty neighbor can inflate that ratio; the multi-tenant
// sweep gates on it.
package tenant

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/diag"
	"repro/internal/enzo"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// JobKind selects a job's workload.
type JobKind int

const (
	// KindEnzo runs a full enzo simulation (setup, evolution, dumps,
	// restart verification) as an enzo.Assemble world.
	KindEnzo JobKind = iota
	// KindReader is a synthetic analysis job: each rank provisions a
	// private file and then scans it sequentially for a number of passes —
	// the read-mostly post-processing traffic that shares clusters with
	// production writers.
	KindReader
)

func (k JobKind) String() string {
	if k == KindReader {
		return "reader"
	}
	return "enzo"
}

// JobSpec describes one tenant job.
type JobSpec struct {
	// Name identifies the job; it prefixes the job's process names and
	// file namespace, so it must be unique within a fleet and non-empty.
	Name string
	Kind JobKind

	// Procs is the job's rank count. The fleet packs jobs onto disjoint
	// node ranges in spec order.
	Procs int

	// StartAt staggers the job: its ranks sleep until this virtual time
	// before doing anything (a later queue slot in the batch system).
	StartAt float64

	// Weight is the job's fair-queueing share (0 means 1). Ignored under
	// FIFO.
	Weight float64

	// Config and Backend apply to KindEnzo jobs.
	Config  enzo.Config
	Backend enzo.Backend

	// ReadBytes (per rank) and Passes apply to KindReader jobs; Passes 0
	// means 1.
	ReadBytes int64
	Passes    int
}

// FleetConfig describes a multi-tenant run.
type FleetConfig struct {
	Machine machine.Config
	FS      string // enzo.MakeFS kind: "pvfs", "gpfs", ...

	// Policy is the shared-server scheduling discipline: "fifo" (or "")
	// for the historical first-come-first-served default, "fair" for
	// deterministic weighted fair queueing (sim.FairQueue). "fair"
	// requires a file system exposing SetSchedPolicy (pvfs, gpfs).
	Policy string

	// BurstBuffer interposes the node-local staging tier
	// (pfs.WrapBurstBuffer) between every job and the shared file system.
	BurstBuffer bool

	// Trace attaches a fleet-wide obs.Tracer; FleetResult.Tracer then
	// feeds the diag report path. Ranks are numbered globally across jobs
	// in spec order so per-rank telemetry never collides.
	Trace bool

	Jobs []JobSpec
}

// JobResult is one job's outcome in a fleet run.
type JobResult struct {
	Name     string
	Kind     string
	Problem  string // enzo problem name; "scan" for readers
	Procs    int
	Class    int
	StartAt  float64
	Weight   float64
	IOSec    float64 // contended I/O time (read+write+restart; full scan loop for readers)
	FinishAt float64 // virtual time the job's slowest rank finished
	Verified bool    // enzo restart verification (always true for readers)

	// AloneIOSec and Slowdown compare against the same job run alone on
	// an otherwise idle machine (same placement, same policy): Slowdown =
	// IOSec / AloneIOSec.
	AloneIOSec float64
	Slowdown   float64
}

// FleetResult is the outcome of a RunFleet call.
type FleetResult struct {
	Policy   string
	FS       string
	Machine  string
	Makespan float64 // engine max time across all jobs
	Jobs     []JobResult

	// Tracer carries the fleet-wide telemetry when FleetConfig.Trace was
	// set (nil otherwise); diag.Snapshot turns it into a report.
	Tracer *obs.Tracer
}

// WorstSlowdown returns the largest per-job slowdown in the fleet (0 for
// an empty fleet) — the number a fairness policy must bound.
func (fr *FleetResult) WorstSlowdown() float64 {
	worst := 0.0
	for _, j := range fr.Jobs {
		if j.Slowdown > worst {
			worst = j.Slowdown
		}
	}
	return worst
}

// DiagJobs renders the fleet's per-job outcomes as diag.Report rows, in
// spec order, so iodoctor/ioreport can attribute a shared-cluster run's
// telemetry to its tenants.
func (fr *FleetResult) DiagJobs() []diag.JobIO {
	jobs := make([]diag.JobIO, len(fr.Jobs))
	for i, j := range fr.Jobs {
		jobs[i] = diag.JobIO{
			Name: j.Name, Kind: j.Kind, Problem: j.Problem, Procs: j.Procs,
			StartSec: j.StartAt, Weight: j.Weight,
			IOSeconds: j.IOSec, AloneSec: j.AloneIOSec, Slowdown: j.Slowdown,
			Verified: j.Verified,
		}
	}
	return jobs
}

// schedPolicyHost is the capability to install a server-side scheduling
// policy; pvfs and gpfs implement it (found through pfs.As, never
// required).
type schedPolicyHost interface {
	SetSchedPolicy(func(server string) sim.SchedPolicy)
}

// placements packs the jobs onto disjoint node ranges in spec order and
// validates the fleet fits the machine.
func placements(cfg FleetConfig) ([]int, error) {
	ppn := cfg.Machine.ProcsPerNode
	if ppn <= 0 {
		return nil, fmt.Errorf("tenant: machine %s has no procs per node", cfg.Machine.Name)
	}
	bases := make([]int, len(cfg.Jobs))
	node := 0
	seen := make(map[string]bool)
	for i, j := range cfg.Jobs {
		if j.Name == "" {
			return nil, fmt.Errorf("tenant: job %d needs a name", i)
		}
		if seen[j.Name] {
			return nil, fmt.Errorf("tenant: duplicate job name %q", j.Name)
		}
		seen[j.Name] = true
		if j.Procs <= 0 {
			return nil, fmt.Errorf("tenant: job %q needs at least one rank", j.Name)
		}
		if j.Weight < 0 {
			return nil, fmt.Errorf("tenant: job %q has negative weight %g", j.Name, j.Weight)
		}
		bases[i] = node
		node += (j.Procs + ppn - 1) / ppn
	}
	if node > cfg.Machine.Nodes {
		return nil, fmt.Errorf("tenant: fleet needs %d nodes, machine %s has %d",
			node, cfg.Machine.Name, cfg.Machine.Nodes)
	}
	return bases, nil
}

// jobClass maps a fleet index to its service class. Class 0 is the
// untagged default every historical single-job run uses, so tenants
// start at 1.
func jobClass(i int) int { return i + 1 }

// fleetWeights builds the fair-queueing weight map (class -> weight).
func fleetWeights(jobs []JobSpec, idx []int) map[int]float64 {
	w := make(map[int]float64, len(jobs))
	for _, i := range idx {
		weight := jobs[i].Weight
		if weight == 0 {
			weight = 1
		}
		w[jobClass(i)] = weight
	}
	return w
}

// jobOutcome is what one job run (alone or contended) reports back.
type jobOutcome struct {
	ioSec    float64
	finishAt float64
	verified bool
	problem  string
}

// runJobs executes the jobs selected by idx (indices into cfg.Jobs) as one
// assembled run, keeping each job's fleet placement and service class so an
// alone run is the contended run minus the neighbors. Returns one outcome
// per selected job plus the makespan and the tracer (nil unless cfg.Trace).
func runJobs(cfg FleetConfig, bases []int, idx []int) ([]jobOutcome, float64, *obs.Tracer, error) {
	alloc := enzo.Allocation{Machine: cfg.Machine, FS: cfg.FS,
		Wrap: func(raw pfs.FileSystem) (pfs.FileSystem, error) {
			if cfg.Policy == "fair" {
				host, ok := pfs.As[schedPolicyHost](raw)
				if !ok {
					return nil, fmt.Errorf("tenant: file system %q does not support scheduling policies", cfg.FS)
				}
				weights := fleetWeights(cfg.Jobs, idx)
				host.SetSchedPolicy(func(string) sim.SchedPolicy { return sim.FairQueue(weights) })
			}
			if cfg.BurstBuffer {
				return pfs.WrapBurstBuffer(raw, pfs.DefaultBurst()), nil
			}
			return raw, nil
		}}
	if cfg.Trace {
		alloc.Tracer = obs.NewTracer()
	}

	outcomes := make([]jobOutcome, len(idx))
	worlds := make([]enzo.World, len(idx))
	for k, i := range idx {
		spec, out := cfg.Jobs[i], &outcomes[k]
		worlds[k] = enzo.World{Procs: spec.Procs,
			Place: mpi.Placement{Name: spec.Name, NodeBase: bases[i], Class: jobClass(i)},
			View:  func(fs pfs.FileSystem) pfs.FileSystem { return pfs.WrapPrefix(fs, spec.Name+"/") },
			Body: func(r *mpi.Rank, fs pfs.FileSystem, s *enzo.Sim) {
				if spec.StartAt > 0 {
					r.Proc().AdvanceTo(spec.StartAt)
				}
				if s != nil {
					s.Run()
				} else {
					scanJob(r, fs, spec, out)
				}
				if now := r.Proc().Now(); now > out.finishAt {
					out.finishAt = now
				}
			}}
		if spec.Kind == KindEnzo {
			worlds[k].Config, worlds[k].Backend, worlds[k].Result = spec.Config, spec.Backend, new(enzo.Result)
		}
	}

	// A restart that found no clean generation is the job's Verified=false,
	// not the fleet's failure.
	makespan, err := enzo.Assemble(alloc, worlds...)
	var dirty *enzo.RestartError
	if err != nil && !errors.As(err, &dirty) {
		return nil, 0, nil, err
	}
	for k, w := range worlds {
		if res := w.Result; res != nil {
			outcomes[k].ioSec, outcomes[k].verified, outcomes[k].problem = res.IOTime(), res.Verified, res.Problem
		} else {
			outcomes[k].verified, outcomes[k].problem = true, "scan"
		}
	}
	return outcomes, makespan, alloc.Tracer, nil
}

// scanJob is the KindReader body: provision a private per-rank file,
// then sequentially re-read it for the configured passes. The whole
// loop is I/O, so the job's I/O time is its elapsed time (max across
// ranks — the engine serializes bodies, so the shared max is safe).
func scanJob(r *mpi.Rank, fs pfs.FileSystem, spec JobSpec, out *jobOutcome) {
	bytes := spec.ReadBytes
	if bytes <= 0 {
		bytes = 1 << 20
	}
	passes := spec.Passes
	if passes <= 0 {
		passes = 1
	}
	c := pfs.Client{Proc: r.Proc(), Node: r.Node()}
	data := make([]byte, bytes)
	rand.New(rand.NewSource(int64(r.Rank()) + 1)).Read(data)

	t0 := r.Now()
	f, err := fs.Create(c, fmt.Sprintf("scan%d", r.Rank()))
	if err != nil {
		panic(err)
	}
	f.WriteAt(c, data, 0)
	r.Barrier()
	buf := make([]byte, bytes)
	for p := 0; p < passes; p++ {
		f.ReadAt(c, buf, 0)
	}
	f.Close(c)
	if io := r.Now() - t0; io > out.ioSec {
		out.ioSec = io
	}
}

// RunFleet runs every job alone (same placement, same policy, idle
// machine) and then the whole fleet contended, and reports per-job
// slowdowns. The alone runs use fresh engines and file systems, so the
// contended run's state never leaks into the baselines.
func RunFleet(cfg FleetConfig) (*FleetResult, error) {
	if len(cfg.Jobs) == 0 {
		return nil, fmt.Errorf("tenant: fleet needs at least one job")
	}
	switch cfg.Policy {
	case "", "fifo", "fair":
		// fifo is the built-in watermark, bit-identical to every historical run.
	default:
		return nil, fmt.Errorf("tenant: unknown policy %q (want fifo or fair)", cfg.Policy)
	}
	bases, err := placements(cfg)
	if err != nil {
		return nil, err
	}

	alone := make([]jobOutcome, len(cfg.Jobs))
	for i := range cfg.Jobs {
		out, _, _, err := runJobs(cfg, bases, []int{i})
		if err != nil {
			return nil, fmt.Errorf("tenant: job %q alone: %w", cfg.Jobs[i].Name, err)
		}
		alone[i] = out[0]
	}

	idx := make([]int, len(cfg.Jobs))
	for i := range idx {
		idx[i] = i
	}
	contended, makespan, tr, err := runJobs(cfg, bases, idx)
	if err != nil {
		return nil, fmt.Errorf("tenant: contended fleet: %w", err)
	}

	policy := cfg.Policy
	if policy == "" {
		policy = "fifo"
	}
	fr := &FleetResult{Policy: policy, FS: cfg.FS, Machine: cfg.Machine.Name,
		Makespan: makespan, Tracer: tr}
	for i, spec := range cfg.Jobs {
		weight := spec.Weight
		if weight == 0 {
			weight = 1
		}
		jr := JobResult{
			Name: spec.Name, Kind: spec.Kind.String(), Problem: contended[i].problem,
			Procs: spec.Procs, Class: jobClass(i), StartAt: spec.StartAt, Weight: weight,
			IOSec: contended[i].ioSec, FinishAt: contended[i].finishAt,
			Verified:   contended[i].verified && alone[i].verified,
			AloneIOSec: alone[i].ioSec,
		}
		if jr.AloneIOSec > 0 {
			jr.Slowdown = jr.IOSec / jr.AloneIOSec
		}
		fr.Jobs = append(fr.Jobs, jr)
	}
	return fr, nil
}
