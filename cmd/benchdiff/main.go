// Command benchdiff is the repository's deterministic benchmark
// regression gate. The simulation is virtual-time: identical code must
// produce bit-identical results on every machine, so the committed
// baselines (BENCH_baseline.json, BENCH_faults.json, BENCH_reads.json,
// BENCH_dedup.json, BENCH_scale.json, BENCH_hints.json,
// BENCH_tenants.json) are compared with EXACT equality — any drift,
// however small, means the model's timing changed and must be either
// fixed or consciously re-baselined.
//
// Usage:
//
//	benchdiff              compare a fresh run against the baselines
//	benchdiff -update      re-run and overwrite all the baselines
//	benchdiff -only scale,hints   compare (or, with -update, overwrite) just
//	                       the named families: baseline, faults, reads,
//	                       dedup, hints, tenants, scale. Families run, and
//	                       are written, one at a time.
//	benchdiff -checkdedup  assert the committed dedup baseline's invariant
//	                       (castore device bytes strictly below plain at
//	                       retention depth >= 2) without running anything
//	benchdiff -checkhints  assert the committed hints baseline's invariant
//	                       (autotuned total I/O time never above the
//	                       defaults, strictly below on at least one pvfs
//	                       row) without running anything
//	benchdiff -checktenants  assert the committed tenants baseline's
//	                       invariant (fair queueing's worst contended
//	                       slowdown never above FIFO's, strictly below on
//	                       at least one pvfs fleet) without running
//	                       anything
//
// The benchmark set: Table 1 volumes (all problems), the codec, overlap
// and restart-read sweeps at AMR128/np=8, the fault sweep (stragglers
// and corruption recovery) at AMR64/np=8, the dedup sweep
// (content-addressed store vs plain dumps) at AMR64+AMR128/np=8, the
// scale sweep (virtual time and deterministic events/op vs rank count) at
// AMR128/AMR256 with np up to 256, and the hints sweep (autotuned MPI-IO
// hint vector vs defaults) across three machines x pvfs/gpfs x
// mpiio/hdf5 at AMR64/np=8.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
	"strings"

	"repro/internal/experiments"
)

// Baseline is the serialized benchmark result set of the main sweeps.
type Baseline struct {
	Table1  []experiments.Table1Row
	Codecs  []experiments.Row
	Overlap []experiments.OverlapRow
}

// Faults is the serialized fault-sweep result set, kept in its own file so
// fault-model changes re-baseline separately from the main sweeps.
type Faults struct {
	Stragglers []experiments.StragglerRow
	Recovery   []experiments.RecoveryRow
}

// Reads is the serialized restart-read sweep, in its own file so read-path
// changes re-baseline separately.
type Reads struct {
	Reads []experiments.ReadRow
}

// Dedup is the serialized dedup sweep, in its own file so castore changes
// re-baseline separately.
type Dedup struct {
	Dedup []experiments.DedupRow
}

// Scale is the serialized scale sweep, in its own file so engine-scale
// changes re-baseline separately. The wall-clock events/sec column is
// stripped before writing or comparing: only the virtual times and the
// deterministic events/op counts gate.
type Scale struct {
	Scale []experiments.ScaleRow
}

// Hints is the serialized hints sweep, in its own file so autotuner
// changes re-baseline separately.
type Hints struct {
	Hints []experiments.HintsRow
}

// Tenants is the serialized multi-tenant sweep, in its own file so
// scheduling-policy and burst-buffer changes re-baseline separately.
type Tenants struct {
	Tenants []experiments.TenantRow
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fl.SetOutput(stderr)
	update := fl.Bool("update", false, "overwrite the baselines with a fresh run instead of comparing")
	basePath := fl.String("baseline", "BENCH_baseline.json", "main benchmark baseline file")
	faultPath := fl.String("faults", "BENCH_faults.json", "fault-sweep baseline file")
	readPath := fl.String("reads", "BENCH_reads.json", "restart-read sweep baseline file")
	dedupPath := fl.String("dedup", "BENCH_dedup.json", "dedup sweep baseline file")
	scalePath := fl.String("scale", "BENCH_scale.json", "scale sweep baseline file")
	hintsPath := fl.String("hints", "BENCH_hints.json", "hints sweep baseline file")
	tenantsPath := fl.String("tenants", "BENCH_tenants.json", "multi-tenant sweep baseline file")
	checkDedup := fl.Bool("checkdedup", false, "only check the committed dedup baseline's savings invariant (no simulations)")
	checkHints := fl.Bool("checkhints", false, "only check the committed hints baseline's tuned-beats-default invariant (no simulations)")
	checkTenants := fl.Bool("checktenants", false, "only check the committed tenants baseline's fairness invariant (no simulations)")
	only := fl.String("only", "", "comma-separated families to run and write or compare (baseline, faults, reads, dedup, hints, tenants, scale); empty means all")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() != 0 {
		fmt.Fprintf(stderr, "unexpected arguments: %v\n", fl.Args())
		fl.Usage()
		return 2
	}

	o := experiments.Options{}
	// scale runs last: it is the family most likely to die of memory.
	families := []family{
		newFamily("baseline", basePath, "table1, codec and overlap sweeps (AMR128, np=8)",
			func() (Baseline, error) {
				b := Baseline{Table1: experiments.Table1(o)}
				var err error
				if b.Codecs, err = experiments.CodecSweep(o); err != nil {
					return b, err
				}
				b.Overlap, err = experiments.OverlapSweep(o)
				return b, err
			}, nil, func(base, fresh Baseline) []string {
				return slices.Concat(
					CompareRows("table1", base.Table1, fresh.Table1),
					CompareRows("codecs", base.Codecs, fresh.Codecs),
					CompareRows("overlap", base.Overlap, fresh.Overlap))
			}),
		newFamily("faults", faultPath, "fault sweep (AMR64, np=8)",
			func() (f Faults, err error) {
				f.Stragglers, f.Recovery, err = experiments.FaultSweep(o)
				return f, err
			}, nil, func(base, fresh Faults) []string {
				return slices.Concat(
					CompareRows("faults/stragglers", base.Stragglers, fresh.Stragglers),
					CompareRows("faults/recovery", base.Recovery, fresh.Recovery))
			}),
		newFamily("reads", readPath, "read sweep (AMR128, np=8)",
			func() (r Reads, err error) {
				r.Reads, err = experiments.ReadSweep(o)
				return r, err
			}, nil, func(base, fresh Reads) []string { return CompareRows("reads", base.Reads, fresh.Reads) }),
		newFamily("dedup", dedupPath, "dedup sweep (AMR64+AMR128, np=8)",
			func() (d Dedup, err error) {
				d.Dedup, err = experiments.DedupSweep(o)
				return d, err
			}, func(d Dedup) []string { return checkDedupInvariant(d.Dedup) },
			func(base, fresh Dedup) []string { return CompareRows("dedup", base.Dedup, fresh.Dedup) }),
		newFamily("hints", hintsPath, "hints sweep (AMR64, np=8)",
			func() (h Hints, err error) {
				h.Hints, err = experiments.HintsSweep(o)
				return h, err
			}, func(h Hints) []string { return checkHintsInvariant(h.Hints) },
			func(base, fresh Hints) []string { return CompareRows("hints", base.Hints, fresh.Hints) }),
		newFamily("tenants", tenantsPath, "multi-tenant sweep (fifo vs fair, np=4-8)",
			func() (t Tenants, err error) {
				t.Tenants, err = experiments.MultiTenantSweep(o)
				return t, err
			}, func(t Tenants) []string { return checkTenantsInvariant(t.Tenants) },
			func(base, fresh Tenants) []string { return CompareRows("tenants", base.Tenants, fresh.Tenants) }),
		newFamily("scale", scalePath, "scale sweep (AMR128/AMR256, np=8-256)",
			func() (Scale, error) {
				rows, err := experiments.ScaleSweep(o)
				return Scale{Scale: experiments.StripWallClock(rows)}, err
			}, nil, func(base, fresh Scale) []string { return CompareRows("scale", base.Scale, fresh.Scale) }),
	}
	selected := make(map[string]bool)
	for _, f := range families {
		selected[f.name] = *only == ""
	}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			if _, known := selected[name]; !known {
				fmt.Fprintf(stderr, "unknown family %q in -only\n", name)
				fl.Usage()
				return 2
			}
			selected[name] = true
		}
	}

	if *checkDedup {
		var baseDedup Dedup
		if err := readJSON(*dedupPath, &baseDedup); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		if problems := checkDedupInvariant(baseDedup.Dedup); len(problems) > 0 {
			fmt.Fprintf(stdout, "DEDUP INVARIANT VIOLATED in %s:\n", *dedupPath)
			for _, p := range problems {
				fmt.Fprintln(stdout, " ", p)
			}
			return 1
		}
		fmt.Fprintf(stdout, "dedup baseline ok: castore device bytes strictly below plain at every depth >= 2\n")
		return 0
	}

	if *checkHints {
		var baseHints Hints
		if err := readJSON(*hintsPath, &baseHints); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		if problems := checkHintsInvariant(baseHints.Hints); len(problems) > 0 {
			fmt.Fprintf(stdout, "HINTS INVARIANT VIOLATED in %s:\n", *hintsPath)
			for _, p := range problems {
				fmt.Fprintln(stdout, " ", p)
			}
			return 1
		}
		fmt.Fprintf(stdout, "hints baseline ok: tuned I/O time never above the defaults, strictly below on pvfs\n")
		return 0
	}

	if *checkTenants {
		var baseTenants Tenants
		if err := readJSON(*tenantsPath, &baseTenants); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		if problems := checkTenantsInvariant(baseTenants.Tenants); len(problems) > 0 {
			fmt.Fprintf(stdout, "TENANTS INVARIANT VIOLATED in %s:\n", *tenantsPath)
			for _, p := range problems {
				fmt.Fprintln(stdout, " ", p)
			}
			return 1
		}
		fmt.Fprintf(stdout, "tenants baseline ok: fair queueing never worsens, and on pvfs strictly improves, the worst contended slowdown\n")
		return 0
	}

	// One family at a time — run, check its invariant, then write or
	// compare — so a sweep that dies (the scale family's largest rows can be
	// OOM-killed on a small box) costs only itself, not the families already
	// done.
	var ran, drifted []string
	for _, f := range families {
		if !selected[f.name] {
			continue
		}
		ran = append(ran, *f.path)
		fmt.Fprintf(stderr, "running %s: %s...\n", f.name, f.sweeps)
		violations, drift, err := f.process(*f.path, *update)
		if err != nil {
			fmt.Fprintf(stderr, "error: %s: %v\n", f.name, err)
			return 1
		}
		if len(violations) > 0 {
			fmt.Fprintf(stdout, "%s INVARIANT VIOLATED in the fresh sweep:\n", strings.ToUpper(f.name))
			for _, v := range violations {
				fmt.Fprintln(stdout, " ", v)
			}
			return 1
		}
		if len(drift) > 0 {
			drifted = append(drifted, f.name)
			fmt.Fprintf(stdout, "BENCHMARK DRIFT in %s: %d difference(s) against %s\n\n", f.name, len(drift), *f.path)
			for _, d := range drift {
				fmt.Fprintln(stdout, d)
			}
			fmt.Fprintln(stdout)
		}
	}
	if *update {
		fmt.Fprintf(stdout, "baselines updated: %s\n", strings.Join(ran, ", "))
		return 0
	}
	if len(drifted) > 0 {
		fmt.Fprintf(stdout, "If the change is intended, re-baseline with: go run ./cmd/benchdiff -update -only %s\n",
			strings.Join(drifted, ","))
		return 1
	}
	fmt.Fprintf(stdout, "benchmarks match the baselines exactly (%s)\n", strings.Join(ran, ", "))
	return 0
}

// family is one independently re-baselined sweep group: its name for -only,
// its baseline file, and process, which runs the sweeps, checks the family's
// invariant (if it has one) on the fresh rows and then either writes the
// baseline (update) or compares against it.
type family struct {
	name    string
	path    *string
	sweeps  string // progress line
	process func(path string, update bool) (violations, drift []string, err error)
}

// newFamily builds a family from its typed parts; invariant may be nil.
func newFamily[T any](name string, path *string, sweeps string, sweep func() (T, error),
	invariant func(T) []string, diff func(base, fresh T) []string) family {
	process := func(path string, update bool) (violations, drift []string, err error) {
		fresh, err := sweep()
		if err != nil {
			return nil, nil, err
		}
		if invariant != nil {
			if violations = invariant(fresh); len(violations) > 0 {
				return violations, nil, nil
			}
		}
		if update {
			return nil, nil, writeJSON(path, fresh)
		}
		var base T
		if err := readJSON(path, &base); err != nil {
			return nil, nil, err
		}
		return nil, diff(base, fresh), nil
	}
	return family{name: name, path: path, sweeps: sweeps, process: process}
}

// checkDedupInvariant asserts the dedup sweep's headline claim: every
// unreplicated castore row at retention depth >= 2 lands strictly fewer
// device bytes than the plain row of the same case. An empty row set is a
// violation — the gate must never pass vacuously.
func checkDedupInvariant(rows []experiments.DedupRow) []string {
	type key struct {
		Machine, FS, Problem string
		Depth                int
	}
	plain := make(map[key]experiments.DedupRow)
	for _, r := range rows {
		if !r.CAStore {
			plain[key{r.Machine, r.FS, r.Problem, r.Depth}] = r
		}
	}
	var problems []string
	checked := 0
	for _, r := range rows {
		if !r.CAStore || r.Replicas > 1 || r.Depth < 2 {
			continue
		}
		p, ok := plain[key{r.Machine, r.FS, r.Problem, r.Depth}]
		if !ok {
			problems = append(problems, fmt.Sprintf(
				"%s/%s %s depth=%d: castore row has no plain twin", r.Machine, r.FS, r.Problem, r.Depth))
			continue
		}
		checked++
		if r.DeviceMB >= p.DeviceMB {
			problems = append(problems, fmt.Sprintf(
				"%s/%s %s depth=%d: castore device MB %.3f not strictly below plain %.3f",
				r.Machine, r.FS, r.Problem, r.Depth, r.DeviceMB, p.DeviceMB))
		}
	}
	if checked == 0 {
		problems = append(problems, "no castore rows at depth >= 2 to check")
	}
	return problems
}

// checkHintsInvariant asserts the hints sweep's headline claim: the
// autotuned hint vector's total I/O time is never above the hand-picked
// defaults on any row, and strictly below on at least one pvfs row (the
// paper's tuning target). Every row must also still verify. An empty row
// set is a violation — the gate must never pass vacuously.
func checkHintsInvariant(rows []experiments.HintsRow) []string {
	var problems []string
	checked, pvfsWins := 0, 0
	for _, r := range rows {
		checked++
		if !r.Verified {
			problems = append(problems, fmt.Sprintf(
				"%s/%s %s: tuned run failed verification", r.Machine, r.FS, r.Backend))
		}
		if r.TunedIOSec > r.DefaultIOSec {
			problems = append(problems, fmt.Sprintf(
				"%s/%s %s: tuned I/O %.3fs above default %.3fs",
				r.Machine, r.FS, r.Backend, r.TunedIOSec, r.DefaultIOSec))
		}
		if r.FS == "pvfs" && r.TunedIOSec < r.DefaultIOSec {
			pvfsWins++
		}
	}
	if checked == 0 {
		problems = append(problems, "no hints rows to check")
	} else if pvfsWins == 0 {
		problems = append(problems, "no pvfs row where tuned I/O is strictly below the default")
	}
	return problems
}

// checkTenantsInvariant asserts the multi-tenant sweep's headline claim:
// on every contended fleet, fair queueing's worst-job slowdown is no
// worse than FIFO's, and on at least one contended pvfs fleet it is
// strictly better. Every row must verify, every contended case needs
// both policy groups, and an empty row set is a violation — the gate
// must never pass vacuously.
func checkTenantsInvariant(rows []experiments.TenantRow) []string {
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

// CompareRows compares two row slices of the same comparable struct type
// with exact equality and renders any differences field by field. Virtual
// times survive the JSON round-trip bit-exactly (Go emits the shortest
// representation that parses back to the same float64), so == is the right
// comparison — no tolerance.
func CompareRows[T comparable](section string, base, fresh []T) []string {
	var out []string
	if len(base) != len(fresh) {
		out = append(out, fmt.Sprintf("%s: row count changed: baseline %d, fresh %d",
			section, len(base), len(fresh)))
	}
	n := len(base)
	if len(fresh) < n {
		n = len(fresh)
	}
	for i := 0; i < n; i++ {
		if base[i] == fresh[i] {
			continue
		}
		out = append(out, fmt.Sprintf("%s row %d:%s", section, i, diffFields(base[i], fresh[i])))
	}
	return out
}

// diffFields renders the fields that differ between two structs of the
// same type.
func diffFields[T any](base, fresh T) string {
	bv, fv := reflect.ValueOf(base), reflect.ValueOf(fresh)
	t := bv.Type()
	out := ""
	for i := 0; i < t.NumField(); i++ {
		b, f := bv.Field(i).Interface(), fv.Field(i).Interface()
		if b != f {
			out += fmt.Sprintf("\n  %-14s baseline %v\tfresh %v", t.Field(i).Name, b, f)
		}
	}
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("%w (generate with: go run ./cmd/benchdiff -update)", err)
	}
	return json.Unmarshal(b, v)
}
