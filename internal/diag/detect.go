package diag

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/enzo"
	"repro/internal/obs"
)

// Severity ranks a finding's importance. The rubric (DESIGN.md §11):
// critical findings cost a large, certain fraction of run time and have a
// known fix; warnings are material but smaller or less certain; info
// findings are orientation (the critical path) and near-miss observations.
type Severity int

// Severity levels, least severe first so ordering compares naturally.
const (
	SevInfo Severity = iota
	SevWarn
	SevCritical
)

func (s Severity) String() string {
	switch s {
	case SevCritical:
		return "critical"
	case SevWarn:
		return "warning"
	}
	return "info"
}

// MarshalJSON encodes the severity as its string name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON accepts the string names produced by MarshalJSON.
func (s *Severity) UnmarshalJSON(b []byte) error {
	switch strings.Trim(string(b), `"`) {
	case "critical":
		*s = SevCritical
	case "warning":
		*s = SevWarn
	case "info":
		*s = SevInfo
	default:
		return fmt.Errorf("diag: unknown severity %s", b)
	}
	return nil
}

// Finding is one diagnosed condition: what was detected, how bad it is,
// how much exposed time it accounts for and what to do about it.
type Finding struct {
	Detector string   `json:"detector"`
	Severity Severity `json:"severity"`
	Title    string   `json:"title"`
	Detail   string   `json:"detail,omitempty"`
	// ImpactSeconds is the exposed virtual time attributed to the
	// condition (an estimate; 0 when not meaningfully attributable).
	ImpactSeconds float64 `json:"impact_seconds"`
	Advice        string  `json:"advice,omitempty"`
}

// detectors, in a fixed registration order so ties sort stably.
var detectors = []func(*Report) []Finding{
	detectCriticalPath,
	detectImbalance,
	detectStragglerServers,
	detectAmplification,
	detectSmallRequests,
	detectCBMismatch,
	detectUnhiddenAsync,
	detectFaults,
}

// Analyze runs every detector over the report and returns the findings
// ranked most severe first (then by impact, then stably by detector and
// title). A nil or empty report yields no findings — never a panic.
func Analyze(rep *Report) []Finding {
	if rep == nil {
		return nil
	}
	var out []Finding
	for _, d := range detectors {
		out = append(out, d(rep)...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.ImpactSeconds != b.ImpactSeconds {
			return a.ImpactSeconds > b.ImpactSeconds
		}
		if a.Detector != b.Detector {
			return a.Detector < b.Detector
		}
		return a.Title < b.Title
	})
	return out
}

// MaxSeverity returns the highest severity present (SevInfo-1 < SevInfo
// is impossible; for no findings it returns -1 cast to Severity so any
// threshold comparison fails closed).
func MaxSeverity(fs []Finding) Severity {
	max := Severity(-1)
	for _, f := range fs {
		if f.Severity > max {
			max = f.Severity
		}
	}
	return max
}

// detectCriticalPath emits the orientation finding: which (phase, layer)
// cell dominates aggregate exclusive time. Always info — it names the
// bottleneck, the other detectors judge it.
func detectCriticalPath(rep *Report) []Finding {
	var total float64
	var top Cell
	for _, c := range rep.Matrix {
		total += c.Seconds
		if c.Seconds > top.Seconds {
			top = c
		}
	}
	if total <= 0 || top.Seconds <= 0 {
		return nil
	}
	share := top.Seconds / total
	return []Finding{{
		Detector:      "critical-path",
		Severity:      SevInfo,
		Title:         fmt.Sprintf("critical path: %s layer in the %s phase (%.1f%% of instrumented time)", top.Layer, top.Phase, 100*share),
		Detail:        fmt.Sprintf("%.6fs of %.6fs aggregate exclusive virtual time; %s moved", top.Seconds, total, fmtBytes(top.Bytes)),
		ImpactSeconds: top.Seconds,
	}}
}

// detectImbalance flags rank load imbalance in I/O-stack time: max/mean
// >= 1.5 warns, >= 3 is critical (the paper's funneling of all top-grid
// I/O through processor 0 shows up here). Runs where I/O is under 1% of
// the makespan are ignored.
func detectImbalance(rep *Report) []Finding {
	if len(rep.Ranks) < 2 {
		return nil
	}
	var sum, max float64
	var argmax int
	durs := make([]float64, 0, len(rep.Ranks))
	for _, r := range rep.Ranks {
		sum += r.Seconds
		durs = append(durs, r.Seconds)
		if r.Seconds > max {
			max, argmax = r.Seconds, r.Rank
		}
	}
	mean := sum / float64(len(rep.Ranks))
	if mean <= 0 || (rep.Meta.Makespan > 0 && max < 0.01*rep.Meta.Makespan) {
		return nil
	}
	ratio := max / mean
	sev := Severity(-1)
	switch {
	case ratio >= 3:
		sev = SevCritical
	case ratio >= 1.5:
		sev = SevWarn
	}
	if sev < SevInfo {
		return nil
	}
	p50 := obs.Percentile(durs, 0.50)
	p99 := obs.Percentile(durs, 0.99)
	return []Finding{{
		Detector: "rank-imbalance",
		Severity: sev,
		Title:    fmt.Sprintf("rank load imbalance: max/mean I/O time %.2f (rank %d)", ratio, argmax),
		Detail: fmt.Sprintf("per-rank I/O-stack time max %.6fs vs mean %.6fs; p99 %.6fs, p50 %.6fs",
			max, mean, p99, p50),
		ImpactSeconds: max - mean,
		Advice:        "distribute I/O across ranks: collective I/O instead of funneling through one rank, or rebalance the domain decomposition",
	}}
}

// detectStragglerServers compares each server's mean service time against
// the median of its peer class (same name with digits stripped): 3x warns,
// 6x is critical, and the server's mean queue wait must also be at or
// above the class median — a genuinely degraded server builds queue, while
// a server that merely drew a smaller-request mix does not. Classes need
// >= 3 peers and servers >= 16 requests for the comparison to mean
// anything.
func detectStragglerServers(rep *Report) []Finding {
	byClass := map[string][]ServerLoad{}
	var classes []string
	for _, s := range rep.Servers {
		if s.Requests < 16 {
			continue
		}
		if _, ok := byClass[s.Class]; !ok {
			classes = append(classes, s.Class)
		}
		byClass[s.Class] = append(byClass[s.Class], s)
	}
	sort.Strings(classes)
	var out []Finding
	for _, class := range classes {
		peers := byClass[class]
		if len(peers) < 3 {
			continue
		}
		svc := make([]float64, len(peers))
		wait := make([]float64, len(peers))
		for i, s := range peers {
			svc[i] = s.BusySeconds / float64(s.Requests)
			wait[i] = s.WaitSeconds / float64(s.Requests)
		}
		med := obs.Percentile(svc, 0.5)
		medWait := obs.Percentile(wait, 0.5)
		if med <= 0 {
			continue
		}
		for i, s := range peers {
			factor := svc[i] / med
			sev := Severity(-1)
			switch {
			case factor >= 6:
				sev = SevCritical
			case factor >= 3:
				sev = SevWarn
			}
			if sev < SevInfo || wait[i] < medWait {
				continue
			}
			out = append(out, Finding{
				Detector: "straggler-server",
				Severity: sev,
				Title:    fmt.Sprintf("straggler server %s: %.1fx the class median service time", s.Name, factor),
				Detail: fmt.Sprintf("mean service %.6fs vs class %q median %.6fs over %d requests; queue wait total %.6fs (max %.6fs)",
					svc[i], class, med, s.Requests, s.WaitSeconds, s.WaitMax),
				ImpactSeconds: (svc[i] - med) * float64(s.Requests),
				Advice:        "check the server's storage path (degraded disk, rebuild, failing NIC); on paper-era PVFS one slow iod gates every striped access — drain or replace it",
			})
		}
	}
	return out
}

// detectAmplification compares physical pfs bytes against logical MPI-IO
// bytes. Amplification >= 1.5 warns, >= 4 is critical — for reads, classic
// data-sieving waste on scattered runs. Needs >= 1 MiB of excess so tiny
// metadata noise never fires it.
func detectAmplification(rep *Report) []Finding {
	var out []Finding
	t := rep.Traffic
	if amp, sev := amplification(t.LogicalReadBytes, t.PhysicalReadBytes); sev >= SevInfo {
		out = append(out, Finding{
			Detector: "read-amplification",
			Severity: sev,
			Title:    fmt.Sprintf("read amplification %.2fx: %s physical for %s logical", amp, fmtBytes(t.PhysicalReadBytes), fmtBytes(t.LogicalReadBytes)),
			Detail:   "the pfs layer read more than the application asked for — data sieving over scattered runs pays for the holes",
			Advice:   "shrink the sieve buffer toward the stripe unit, or disable data sieving (ind_rd_buffer_size / romio_ds_read) when runs are very sparse",
		})
	}
	if amp, sev := amplification(t.LogicalWriteBytes, t.PhysicalWriteBytes); sev >= SevInfo {
		out = append(out, Finding{
			Detector: "write-amplification",
			Severity: sev,
			Title:    fmt.Sprintf("write amplification %.2fx: %s physical for %s logical", amp, fmtBytes(t.PhysicalWriteBytes), fmtBytes(t.LogicalWriteBytes)),
			Detail:   "the pfs layer wrote more than the application asked — read-modify-write or re-dump traffic",
			Advice:   "align writes to the stripe unit and check for repeated dump generations",
		})
	}
	return out
}

// amplification is the one test of physical against logical bytes, shared
// by detectAmplification and Suggest's sieving rule: the ratio and the
// severity it earns (>= 4 critical, >= 1.5 a warning), or no severity (-1)
// when there are no logical bytes or under 1 MiB of excess.
func amplification(logical, physical int64) (float64, Severity) {
	if logical <= 0 || physical-logical < 1<<20 {
		return 0, -1
	}
	amp := float64(physical) / float64(logical)
	switch {
	case amp >= 4:
		return amp, SevCritical
	case amp >= 1.5:
		return amp, SevWarn
	}
	return amp, -1
}

// detectSmallRequests is the paper's headline pathology: request-size
// histogram mass below the stripe unit. >= 50% small warns; >= 85% small
// with a sub-quarter-stripe average is critical (the hdf4 layout's tiny
// scattered writes). Needs >= 64 requests.
func detectSmallRequests(rep *Report) []Finding {
	s := rep.Sizes
	if s.Requests < 64 {
		return nil
	}
	frac := float64(s.SmallRequests) / float64(s.Requests)
	sev := Severity(-1)
	switch {
	case frac >= 0.85 && s.AvgBytes < float64(s.ThresholdBytes)/4:
		sev = SevCritical
	case frac >= 0.5:
		sev = SevWarn
	}
	if sev < SevInfo {
		return nil
	}
	return []Finding{{
		Detector: "small-requests",
		Severity: sev,
		Title: fmt.Sprintf("small-request syndrome: %.1f%% of %d pfs requests below the %s stripe unit",
			100*frac, s.Requests, fmtBytes(s.ThresholdBytes)),
		Detail: fmt.Sprintf("average request %.0f bytes; per-request overhead dominates transfer at these sizes", s.AvgBytes),
		Advice: "batch writes to stripe-sized requests: collective I/O with collective buffering, or restructure the layout so each rank writes large contiguous extents",
	}}
}

// detectCBMismatch compares the effective aggregator count (cb_nodes; 0
// means every rank) against the striped data-server fleet when collective
// I/O actually ran. Any mismatch warns; a 4x mismatch either way is
// critical. An effective count of 0 (no cb_nodes and no recorded rank
// count) stays silent, though the cb_nodes rule still fires on it.
func detectCBMismatch(rep *Report) []Finding {
	eff, mismatch := cbMismatch(rep)
	if !mismatch || eff == 0 {
		return nil
	}
	h := rep.Hints[0]
	sev := SevWarn
	if eff*4 <= rep.FS.DataServers || eff >= rep.FS.DataServers*4 {
		sev = SevCritical
	}
	shape := "oversubscribes"
	if eff < rep.FS.DataServers {
		shape = "underuses"
	}
	return []Finding{{
		Detector: "cb-mismatch",
		Severity: sev,
		Title: fmt.Sprintf("collective buffering mismatch: %d aggregators %s %d data servers",
			eff, shape, rep.FS.DataServers),
		Detail: fmt.Sprintf("cb_nodes=%d (effective %d) vs %d striped data servers on %s",
			h.CBNodes, eff, rep.FS.DataServers, rep.FS.Name),
		Advice: fmt.Sprintf("set cb_nodes=%d so each data server is driven by exactly one aggregator", rep.FS.DataServers),
	}}
}

// cbMismatch is the one test of the aggregator count against the striped
// fleet, shared by detectCBMismatch and Suggest's cb_nodes rule. When
// collective I/O ran on two or more data servers under a recorded hint
// set, it returns the effective aggregator count (cb_nodes; 0 means every
// rank) and whether it differs from the data-server count.
func cbMismatch(rep *Report) (eff int, mismatch bool) {
	if rep.FS.DataServers < 2 || rep.Traffic.CollectiveOps <= 0 || len(rep.Hints) == 0 {
		return 0, false
	}
	// Runs open every file with one hint set; take the first.
	eff = rep.Hints[0].CBNodes
	if eff <= 0 {
		eff = rep.Meta.Procs
	}
	return eff, eff != rep.FS.DataServers
}

// detectUnhiddenAsync judges the async overlap machinery: when AsyncIO is
// on but more than half the dump device time is still exposed, the overlap
// is not paying for its complexity. When AsyncIO is off and the write
// phase is a large makespan fraction, suggest turning it on (info).
func detectUnhiddenAsync(rep *Report) []Finding {
	m := rep.Meta
	var out []Finding
	if tot := m.ExposedWrite + m.HiddenWrite; m.Async && tot > 0 {
		share := m.ExposedWrite / tot
		if share >= 0.5 {
			out = append(out, Finding{
				Detector: "unhidden-async",
				Severity: SevWarn,
				Title:    fmt.Sprintf("async writes mostly exposed: %.1f%% of dump device time not hidden", 100*share),
				Detail: fmt.Sprintf("exposed %.6fs vs hidden %.6fs — the overlapped compute window is too short for the device time",
					m.ExposedWrite, m.HiddenWrite),
				ImpactSeconds: m.ExposedWrite,
				Advice:        "lengthen the overlap window (more compute between dumps) or shrink device time first; async cannot hide more than one dump interval",
			})
		} else {
			out = append(out, Finding{
				Detector: "unhidden-async",
				Severity: SevInfo,
				Title:    fmt.Sprintf("async overlap hiding %.1f%% of dump device time", 100*(1-share)),
				Detail:   fmt.Sprintf("exposed %.6fs vs hidden %.6fs", m.ExposedWrite, m.HiddenWrite),
			})
		}
	}
	if w, ok := writeShare(m); ok {
		out = append(out, Finding{
			Detector:      "unhidden-async",
			Severity:      SevInfo,
			Title:         fmt.Sprintf("write phase is %.1f%% of the makespan with AsyncIO off", 100*w/m.Makespan),
			Detail:        fmt.Sprintf("write %.6fs of %.6fs total", w, m.Makespan),
			ImpactSeconds: w,
			Advice:        "enable AsyncIO write-behind to overlap dump device time with the next compute phase",
		})
	}
	return out
}

// writeShare is the one test for a dominant synchronous write phase,
// shared by detectUnhiddenAsync and Suggest's async rule: with AsyncIO off
// and not refused (enzo.RunSpec.Validate), the write phase's seconds and
// whether they reach a fifth of the makespan.
func writeShare(m RunMeta) (float64, bool) {
	b, err := enzo.BackendByName(m.Backend) // a meta naming none is not refused
	async := enzo.RunSpec{FS: m.FS, Procs: m.Procs, Backend: b, Config: enzo.Config{AsyncIO: true}}
	if m.Async || m.Makespan <= 0 || err == nil && async.Validate() != nil {
		return 0, false
	}
	w := m.Phase("write")
	return w, w >= 0.2*m.Makespan
}

// detectFaults surfaces the fault-tolerance counters: abandoned deadline
// operations, retry storms and scrub/re-dump churn.
func detectFaults(rep *Report) []Finding {
	var out []Finding
	if rep.Timeouts > 0 || rep.Retries > 0 {
		out = append(out, Finding{
			Detector: "io-faults",
			Severity: SevWarn,
			Title:    fmt.Sprintf("deadline I/O under stress: %d timeouts, %d retries", rep.Timeouts, rep.Retries),
			Detail:   "abandoned attempts still occupied their servers; retries queued behind them",
			Advice:   "raise the retry budget (timeout/backoff) if runs abort, or fix the slow server the deadline ops are hitting",
		})
	}
	if rep.Meta.ScrubFailures > 0 || rep.Meta.Redumps > 0 || rep.Meta.RestartFallbacks > 0 {
		var redump float64
		var count int64
		for _, g := range rep.Generations {
			if strings.HasPrefix(g.Name, "redump:") {
				redump += g.Seconds
				count += g.Count
			}
		}
		out = append(out, Finding{
			Detector: "scrub-churn",
			Severity: SevWarn,
			Title: fmt.Sprintf("checkpoint scrub churn: %d failed scrubs, %d re-dumps, %d restart fallbacks",
				rep.Meta.ScrubFailures, rep.Meta.Redumps, rep.Meta.RestartFallbacks),
			Detail: fmt.Sprintf("re-dump spans cost %.6f rank-seconds over %d spans (per-generation attribution via redump:NN.t)",
				redump, count),
			ImpactSeconds: redump,
			Advice:        "investigate the corruption source; budget MaxRedumps and Generations so a clean restart candidate survives",
		})
	}
	return out
}
