package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/enzo"
	"repro/internal/machine"
	"repro/internal/tenant"
)

// TenantRow is one job of one multi-tenant fleet run: the job's I/O time
// run alone on the idle machine against the same job inside the
// contended fleet, under one scheduling policy. Rows come in
// (case, policy) groups — all jobs of one fleet — so the fairness gate
// can compare the worst slowdown of a case's fair group against its
// fifo group.
type TenantRow struct {
	Case    string // fixture name; groups the rows of one fleet
	Machine string
	FS      string
	Policy  string // "fifo" or "fair"
	Burst   bool   // node-local burst-buffer staging tier interposed
	Job     string
	Kind    string // "enzo" or "reader"
	Problem string
	Procs   int

	StartSec float64 // the job's staggered start phase
	Weight   float64 // fair-queueing share (1 under FIFO too, for comparability)

	AloneIOSec float64 // the job's I/O time on the idle machine
	IOSec      float64 // the same job's I/O time inside the fleet
	Slowdown   float64 // IOSec / AloneIOSec
	MakespanS  float64 // the whole fleet's makespan

	// Contended marks fixtures whose jobs actually overlap on the shared
	// servers; the fairness invariant only gates contended groups.
	Contended bool
	Verified  bool
}

// tenantCase is one fleet fixture the sweep runs under both policies.
type tenantCase struct {
	name      string
	mach      machine.Config
	fs        string
	burst     bool
	contended bool
	jobs      func(o Options) []tenant.JobSpec
}

// tenantCases returns the sweep's fixtures: staggered same-size twins,
// mixed problem sizes, a synthetic analysis reader against a producer,
// the GPFS platform, and the burst-buffer staging tier — all shapes the
// shared-cluster story needs.
func tenantCases(o Options) []tenantCase {
	amr := func(name, problem string, procs int, start float64) tenant.JobSpec {
		return tenant.JobSpec{Name: name, Kind: tenant.KindEnzo, Procs: procs,
			StartAt: start, Config: o.problem(problem), Backend: enzo.BackendMPIIO}
	}
	return []tenantCase{
		{
			name: "pvfs-twins", mach: machine.ChibaCity(), fs: "pvfs", contended: true,
			jobs: func(o Options) []tenant.JobSpec {
				return []tenant.JobSpec{
					amr("amr64-a", "AMR64", 4, 0),
					amr("amr64-b", "AMR64", 4, 0.5),
				}
			},
		},
		{
			name: "pvfs-mixed", mach: machine.ChibaCity(), fs: "pvfs", contended: true,
			jobs: func(o Options) []tenant.JobSpec {
				return []tenant.JobSpec{
					amr("amr128", "AMR128", 4, 0),
					amr("amr64", "AMR64", 4, 1.0),
				}
			},
		},
		{
			// Negative control: an analysis scan sharing the servers with a
			// producer. On chiba both jobs are bound by their own compute
			// nodes' fast-Ethernet NICs (the paper's client-side bottleneck),
			// so the shared iods stay uncongested and the slowdowns hover at
			// 1.0 under either policy — which is why this group is not marked
			// contended and the fairness gate skips it.
			name: "pvfs-scan", mach: machine.ChibaCity(), fs: "pvfs", contended: false,
			jobs: func(o Options) []tenant.JobSpec {
				return []tenant.JobSpec{
					amr("amr64", "AMR64", 4, 0),
					{Name: "scan", Kind: tenant.KindReader, Procs: 4, StartAt: 0.25,
						ReadBytes: 8 << 20, Passes: 20},
				}
			},
		},
		{
			name: "gpfs-twins", mach: machine.SP2(), fs: "gpfs", contended: true,
			jobs: func(o Options) []tenant.JobSpec {
				return []tenant.JobSpec{
					amr("amr64-a", "AMR64", 8, 0),
					amr("amr64-b", "AMR64", 8, 0.5),
				}
			},
		},
		{
			name: "pvfs-burst", mach: machine.ChibaCity(), fs: "pvfs", burst: true, contended: true,
			jobs: func(o Options) []tenant.JobSpec {
				return []tenant.JobSpec{
					amr("amr64-a", "AMR64", 4, 0),
					amr("amr64-b", "AMR64", 4, 0.5),
				}
			},
		},
	}
}

// MultiTenantSweep runs every fixture under FIFO and under deterministic
// weighted fair queueing and reports per-job slowdown versus run-alone.
// The headline invariant — fair queueing never worsens, and on PVFS
// strictly improves, the worst-job slowdown of a contended fleet — is
// what BENCH_tenants.json gates in CI (CheckTenantsInvariant, benchdiff -check).
func MultiTenantSweep(o Options) ([]TenantRow, error) {
	var rows []TenantRow
	for _, tc := range tenantCases(o) {
		for _, policy := range []string{"fifo", "fair"} {
			fr, err := tenant.RunFleet(tenant.FleetConfig{
				Machine: tc.mach, FS: tc.fs, Policy: policy,
				BurstBuffer: tc.burst, Jobs: tc.jobs(o),
			})
			if err != nil {
				return nil, fmt.Errorf("tenants %s/%s: %w", tc.name, policy, err)
			}
			for _, j := range fr.Jobs {
				rows = append(rows, TenantRow{
					Case: tc.name, Machine: tc.mach.Name, FS: tc.fs,
					Policy: policy, Burst: tc.burst,
					Job: j.Name, Kind: j.Kind, Problem: j.Problem, Procs: j.Procs,
					StartSec: j.StartAt, Weight: j.Weight,
					AloneIOSec: j.AloneIOSec, IOSec: j.IOSec, Slowdown: j.Slowdown,
					MakespanS: fr.Makespan, Contended: tc.contended, Verified: j.Verified,
				})
			}
		}
	}
	return rows, nil
}

// CheckTenantsInvariant asserts the multi-tenant sweep's headline claim:
// on every contended fleet, fair queueing's worst-job slowdown is no
// worse than FIFO's, and on at least one contended pvfs fleet it is
// strictly better. Every row must verify, every contended case needs
// both policy groups, and an empty row set is a violation — the gate
// must never pass vacuously.
func CheckTenantsInvariant(rows []TenantRow) []string {
	type group struct {
		worst float64
		rows  int
	}
	type caseInfo struct {
		fs        string
		contended bool
		policies  map[string]*group
	}
	var problems []string
	cases := make(map[string]*caseInfo)
	order := []string{}
	for _, r := range rows {
		if !r.Verified {
			problems = append(problems, fmt.Sprintf(
				"%s/%s %s job %s failed verification", r.Case, r.Policy, r.Problem, r.Job))
		}
		ci, ok := cases[r.Case]
		if !ok {
			ci = &caseInfo{fs: r.FS, contended: r.Contended, policies: make(map[string]*group)}
			cases[r.Case] = ci
			order = append(order, r.Case)
		}
		g, ok := ci.policies[r.Policy]
		if !ok {
			g = &group{}
			ci.policies[r.Policy] = g
		}
		g.rows++
		if r.Slowdown > g.worst {
			g.worst = r.Slowdown
		}
	}
	checked, pvfsWins := 0, 0
	for _, name := range order {
		ci := cases[name]
		if !ci.contended {
			continue
		}
		fifo, fair := ci.policies["fifo"], ci.policies["fair"]
		if fifo == nil || fair == nil {
			problems = append(problems, fmt.Sprintf(
				"%s: contended case is missing a policy group (fifo=%v fair=%v)", name, fifo != nil, fair != nil))
			continue
		}
		checked++
		if fair.worst > fifo.worst {
			problems = append(problems, fmt.Sprintf(
				"%s: fair worst slowdown %.6f above fifo's %.6f", name, fair.worst, fifo.worst))
		}
		if ci.fs == "pvfs" && fair.worst < fifo.worst {
			pvfsWins++
		}
	}
	if checked == 0 {
		problems = append(problems, "no contended tenant cases to check")
	} else if pvfsWins == 0 {
		problems = append(problems, "no contended pvfs case where fair queueing strictly improves the worst slowdown")
	}
	return problems
}

// PrintTenantSweep renders the multi-tenant sweep, one row per
// (case, policy, job), with the slowdown column carrying the story.
func PrintTenantSweep(w io.Writer, rows []TenantRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "case\tmachine/fs\tpolicy\tjob\tkind\tproblem\tnp\tstart(s)\tio-alone(s)\tio-fleet(s)\tslowdown\tverified")
	for _, r := range rows {
		fs := r.FS
		if r.Burst {
			fs = "bb+" + fs
		}
		fmt.Fprintf(tw, "%s\t%s/%s\t%s\t%s\t%s\t%s\t%d\t%.2f\t%.3f\t%.3f\t%.3fx\t%v\n",
			r.Case, r.Machine, fs, r.Policy, r.Job, r.Kind, r.Problem, r.Procs,
			r.StartSec, r.AloneIOSec, r.IOSec, r.Slowdown, r.Verified)
	}
	tw.Flush()
}
