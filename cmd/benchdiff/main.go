// Command benchdiff is the repository's deterministic benchmark
// regression gate. The simulation is virtual-time: identical code must
// produce bit-identical results on every machine, so the committed
// baselines (one BENCH_<family>.json per family of the experiments
// registry) are compared with EXACT equality — any drift, however small,
// means the model's timing changed and must be either fixed or consciously
// re-baselined.
//
// Usage:
//
//	benchdiff              compare a fresh run against the baselines
//	benchdiff -update      re-run and overwrite the baselines
//	benchdiff -check       assert the committed baselines' invariants (the
//	                       claim each family with one makes about its rows:
//	                       dedup, hints, tenants) without running anything
//	benchdiff -only scale,hints   narrow any of the three to the named
//	                       families: baseline, faults, reads, dedup, hints,
//	                       tenants, scale
//	benchdiff -dir DIR     where the BENCH_*.json files live (default .)
//
// Families run, and are written, one at a time, and one that drifts,
// violates its invariant or fails does not stop the rest: the last line
// names every family that did. Which sweeps a family holds, under which
// keys, and what its invariant claims is experiments.Families.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	families := experiments.Families()
	names := make([]string, len(families))
	for i, f := range families {
		names[i] = f.Name
	}
	fl := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fl.SetOutput(stderr)
	update := fl.Bool("update", false, "overwrite the baselines with a fresh run instead of comparing")
	check := fl.Bool("check", false, "only check the committed baselines' invariants (no simulations)")
	only := fl.String("only", "", "comma-separated families to run and write or compare, or to check ("+strings.Join(names, ", ")+"); empty means all")
	dir := fl.String("dir", ".", "directory holding the BENCH_<family>.json baseline files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, format+"\n", a...)
		fl.Usage()
		return 2
	}
	if fl.NArg() != 0 {
		return usage("unexpected arguments: %v", fl.Args())
	}
	if *check && *update {
		return usage("-check reads the committed baselines; it cannot be combined with -update")
	}
	if *only != "" {
		selected := strings.Split(*only, ",")
		for _, name := range selected {
			if !slices.Contains(names, name) {
				return usage("unknown family %q in -only", name)
			}
		}
		families = slices.DeleteFunc(families, func(f experiments.Family) bool { return !slices.Contains(selected, f.Name) })
	}
	if *check {
		families = slices.DeleteFunc(families, func(f experiments.Family) bool { return len(claims(f)) == 0 })
		if len(families) == 0 {
			return usage("-check: none of the selected families has an invariant")
		}
	}

	// One family at a time — run, check its invariant, then write or
	// compare — so a sweep that dies (the scale family's largest rows can be
	// OOM-killed on a small box) costs only itself, not the families already
	// done; and one that fails any other way does not hide the rest.
	var passed, drifted, failed []string
	for _, f := range families {
		path := filepath.Join(*dir, "BENCH_"+f.Name+".json")
		where := path
		if !*check {
			where = "the fresh sweep"
			fmt.Fprintf(stderr, "running %s...\n", f.Name)
		}
		violations, drift, err := process(f, path, *check, *update)
		switch {
		case err != nil:
			fmt.Fprintf(stderr, "error: %s: %v\n", f.Name, err)
		case len(violations) > 0:
			fmt.Fprintf(stdout, "%s INVARIANT VIOLATED in %s:\n", strings.ToUpper(f.Name), where)
			for _, v := range violations {
				fmt.Fprintln(stdout, " ", v)
			}
		case len(drift) > 0:
			drifted = append(drifted, f.Name)
			fmt.Fprintf(stdout, "BENCHMARK DRIFT in %s: %d difference(s) against %s\n\n", f.Name, len(drift), path)
			for _, d := range drift {
				fmt.Fprintln(stdout, d)
			}
			fmt.Fprintln(stdout)
		default:
			passed = append(passed, path)
			if *check {
				for _, claim := range claims(f) {
					fmt.Fprintf(stdout, "%s baseline ok: %s\n", f.Name, claim)
				}
			}
			continue
		}
		failed = append(failed, f.Name)
	}
	if *update && len(passed) > 0 {
		fmt.Fprintf(stdout, "baselines updated: %s\n", strings.Join(passed, ", "))
	}
	if len(failed) == 0 {
		if !*check && !*update {
			fmt.Fprintf(stdout, "benchmarks match the baselines exactly (%s)\n", strings.Join(passed, ", "))
		}
		return 0
	}
	fmt.Fprintf(stdout, "families that drifted or failed: %s\n", strings.Join(failed, ", "))
	if len(drifted) > 0 {
		fmt.Fprintf(stdout, "If the change is intended, re-baseline with: go run ./cmd/benchdiff -update -only %s\n",
			strings.Join(drifted, ","))
	}
	return 1
}

// claims returns what the family's invariants assert, in words.
func claims(f experiments.Family) []string {
	var out []string
	for _, sec := range f.Sections {
		if sec.Check != nil {
			out = append(out, sec.Claim)
		}
	}
	return out
}

// process handles one family. With check it only reads the committed file
// and checks its invariants; otherwise it runs the sweeps, checks the
// invariants on the fresh rows and then either writes the baseline (update)
// or compares against it. Rows are held per section, in f.Sections' order.
func process(f experiments.Family, path string, check, update bool) (violations, drift []string, err error) {
	var rows [][]any
	if check {
		rows, err = readFamily(path, f)
	} else {
		for _, sec := range f.Sections {
			var t experiments.Table
			if t, err = sec.Run(experiments.Options{}); err != nil {
				break
			}
			rows = append(rows, t.Rows)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	for i, sec := range f.Sections {
		if sec.Check != nil {
			violations = append(violations, sec.Check(rows[i])...)
		}
	}
	if check || len(violations) > 0 {
		return violations, nil, nil
	}
	if update {
		return nil, nil, writeFamily(path, f, rows)
	}
	base, err := readFamily(path, f)
	if err != nil {
		return nil, nil, err
	}
	for i, sec := range f.Sections {
		drift = append(drift, CompareRows(f.Name+"/"+sec.Key, base[i], rows[i])...)
	}
	return nil, drift, nil
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

// writeFamily writes the sections' rows as one JSON object, keys in order —
// the bytes json.MarshalIndent gives a struct with those fields.
func writeFamily(path string, f experiments.Family, rows [][]any) error {
	var buf bytes.Buffer
	buf.WriteString("{")
	for i, sec := range f.Sections {
		b, err := json.MarshalIndent(rows[i], "  ", "  ")
		if err != nil {
			return err
		}
		if i > 0 {
			buf.WriteString(",")
		}
		fmt.Fprintf(&buf, "\n  %q: %s", sec.Key, b)
	}
	buf.WriteString("\n}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// readFamily returns the committed rows of each section; a key the file
// does not have leaves its section empty.
func readFamily(path string, f experiments.Family) ([][]any, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (generate with: go run ./cmd/benchdiff -update)", err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	rows := make([][]any, len(f.Sections))
	for i, sec := range f.Sections {
		if data, ok := keys[sec.Key]; ok {
			if rows[i], err = sec.Decode(data); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", path, sec.Key, err)
			}
		}
	}
	return rows, nil
}
