package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// verdict of one workload × metric pair.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// spread is a sample's range as a share of its median.
func (s sample) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Max - s.Min) / s.Value
}

// judge compares b against its base a. All end-to-end metrics are
// lower-is-better. b is worse when its median exceeds a's by more than the
// bound; otherwise, when either side's own spread is wider than the bound,
// the pair is unresolved — unless every observation of b reads better than
// every one of a.
func judge(a, b sample, bound float64) string {
	switch {
	case b.Value > a.Value*(1+bound):
		return verdictWorse
	case (a.spread() > bound || b.spread() > bound) && b.Max >= a.Min:
		return verdictUnresolved
	}
	return verdictOK
}

// runCompare prints, for every workload × end-to-end metric, both values,
// the ratio with its base, the bound and the verdict. It returns 1 if any
// pair is worse or missing.
func runCompare(w io.Writer, pathA, pathB string) int {
	a, err := readReport(pathA)
	if err == nil && a.Layers {
		err = fmt.Errorf("%s is a per-layer report; -compare judges end-to-end reports", pathA)
	}
	b, errB := readReport(pathB)
	if err == nil {
		err = errB
	}
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	sameSeed := a.Seed == b.Seed
	fmt.Fprintf(w, "base %s (seed %d, %s) vs %s (seed %d, %s)\n", pathA, a.Seed, a.GoVersion, pathB, b.Seed, b.GoVersion)
	if !sameSeed {
		fmt.Fprintln(w, "seeds differ: simulated metrics are held to the across-seed bound, not to equality")
	}
	status := 0
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase\tnew\tnew/base\tbound\tverdict")
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		for _, d := range endToEnd {
			sa, okA := wa.Metrics[d.Name]
			var sb sample
			okB := false
			if wb != nil {
				sb, okB = wb.Metrics[d.Name]
			}
			if !okA || !okB {
				fmt.Fprintf(tw, "%s\t%s\t%s\t\t\t\t\tmissing\n", wa.Name, d.Name, d.Unit)
				status = 1
				continue
			}
			bound, boundText := d.Bound, fmt.Sprintf("%g%%", d.Bound*100)
			if isSimulated(d.Name) && sameSeed {
				bound, boundText = simExact, "exact"
			}
			v := judge(sa, sb, bound)
			if v == verdictWorse {
				status = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.4f of %.6g\t%s\t%s\n",
				wa.Name, d.Name, d.Unit, sa.Value, sb.Value, sb.Value/sa.Value, sa.Value, boundText, v)
		}
		fmt.Fprintf(tw, "%s\tfail_ratio\t\t%d/%d\t", wa.Name, wa.Failed, wa.Attempted)
		if wb != nil {
			fmt.Fprintf(tw, "%d/%d\t\t0\t", wb.Failed, wb.Attempted)
			if wb.Failed > 0 {
				fmt.Fprintln(tw, verdictWorse)
				status = 1
			} else {
				fmt.Fprintln(tw, verdictOK)
			}
		} else {
			fmt.Fprintln(tw, "\t\t\tmissing")
		}
	}
	tw.Flush()
	return status
}
