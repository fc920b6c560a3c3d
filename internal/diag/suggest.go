package diag

import (
	"fmt"

	"repro/internal/mpiio"
)

// HintsDelta is one candidate tuning change derived from a report, the
// ROADMAP's hint autotuner loop. Exactly one of the typed fields is set;
// ApplyConfig (autotune.go) patches it into an enzo.Config, where the
// MPI-IO hint overrides and AsyncIO (a Config knob, not an MPI-IO hint)
// both live.
type HintsDelta struct {
	Param string `json:"param"` // "cb_nodes", "cb_buffer", "sieve_buffer", "data_sieving", "retry", "async_io"
	From  string `json:"from"`
	To    string `json:"to"`
	Why   string `json:"why"`

	CBNodes          *int   `json:"cb_nodes,omitempty"`
	CBBufferSize     *int64 `json:"cb_buffer_bytes,omitempty"`
	DSBufferSize     *int64 `json:"sieve_buffer_bytes,omitempty"`
	DataSieving      *bool  `json:"data_sieving,omitempty"`
	RetryMaxAttempts *int   `json:"retry_max_attempts,omitempty"`
	AsyncIO          *bool  `json:"async_io,omitempty"`
}

// Suggest derives candidate hints deltas from a report: four MPI-IO hint
// rules read off the report's recorded hint set, file-system geometry and
// counters, then the config-level async rule. It is the single source of
// truth for the detector→hint mapping: AutoTune applies what it returns,
// and a rule that mirrors a detector tests its condition with the same
// helper (amplification, cbMismatch, writeShare in detect.go), so a hint
// the tuner picks and a finding the doctor reports can never disagree.
// The list is deterministic (fixed rule order) and conservative: a rule
// whose inputs are missing stays silent rather than guessing. With no
// recorded hint set, rules 1-3 have no baseline and stay silent; rule 4
// can still arm retries from scratch.
//
// Rule 1 (cb_nodes): with collective I/O on a striped volume, the
// effective aggregator count should match the data-server count — fewer
// aggregators leave servers idle, more contend for them.
//
// Rule 2 (cb_buffer): an aggregator flushes its file domain in
// cb_buffer_size chunks. A chunk that is not a whole number of stripe
// units splits a stripe across two server requests on every flush, so a
// misaligned buffer is rounded down to a stripe multiple; and when small
// device requests dominate the profile, a buffer below one full stripe
// set (data servers × stripe unit) is raised to it so each flush can fill
// every server's stripe.
//
// Rule 3 (data_sieving / sieve_buffer): critical read amplification means
// sieved holes dominate the transfers — turn sieving off; a warning-level
// amplification with an oversized sieve buffer aligns the buffer down to
// the stripe unit.
//
// Rule 4 (retry): observed deadline timeouts with no retry policy arm the
// default one; timeouts that still exhausted into restart fallbacks raise
// the attempt budget.
func Suggest(rep *Report) []HintsDelta {
	if rep == nil {
		return nil
	}
	var out []HintsDelta
	var hs HintSet // zero when none was recorded: no buffer, no sieving, no retry
	if len(rep.Hints) > 0 {
		hs = rep.Hints[0] // runs open every file with one hint set
	}
	servers, unit := rep.FS.DataServers, rep.FS.StripeUnitBytes

	// Rule 1: cb_nodes.
	if eff, ok := cbMismatch(rep); ok {
		v := servers
		out = append(out, HintsDelta{Param: "cb_nodes", From: fmt.Sprint(hs.CBNodes), To: fmt.Sprint(v),
			Why: fmt.Sprintf("%d effective aggregators vs %d data servers", eff, servers), CBNodes: &v})
	}

	// Rule 2: cb_buffer vs the stripe unit and the request-size profile.
	if cb, s := hs.CBBufferBytes, rep.Sizes; unit > 0 && rep.Traffic.CollectiveOps > 0 && cb > 0 {
		switch {
		case cb%unit != 0:
			v := max(cb-cb%unit, unit)
			out = append(out, HintsDelta{Param: "cb_buffer", From: fmtBytes(cb), To: fmtBytes(v),
				Why:          fmt.Sprintf("collective buffer is not a whole number of %s stripe units: every flush splits a stripe across two server requests", fmtBytes(unit)),
				CBBufferSize: &v})
		case servers >= 2 && s.Requests > 0 && s.SmallRequests*2 >= s.Requests && cb < int64(servers)*unit:
			v := int64(servers) * unit
			out = append(out, HintsDelta{Param: "cb_buffer", From: fmtBytes(cb), To: fmtBytes(v),
				Why:          fmt.Sprintf("%d of %d device requests below the stripe unit: one flush should fill every server's stripe", s.SmallRequests, s.Requests),
				CBBufferSize: &v})
		}
	}

	// Rule 3: read amplification, with sieving on.
	if amp, sev := amplification(rep.Traffic.LogicalReadBytes, rep.Traffic.PhysicalReadBytes); hs.DataSieving {
		switch {
		case sev == SevCritical:
			v := false
			out = append(out, HintsDelta{Param: "data_sieving", From: "true", To: "false",
				Why: fmt.Sprintf("read amplification %.2fx: sieved holes dominate the transfers", amp), DataSieving: &v})
		case sev == SevWarn && unit > 0 && hs.SieveBufferBytes > unit:
			v := unit
			out = append(out, HintsDelta{Param: "sieve_buffer", From: fmtBytes(hs.SieveBufferBytes), To: fmtBytes(v),
				Why: fmt.Sprintf("read amplification %.2fx: align sieve chunks to the stripe unit", amp), DSBufferSize: &v})
		}
	}

	// Rule 4: retry budget from the fault counters.
	if rep.Timeouts > 0 {
		if !hs.RetryEnabled {
			v := mpiio.DefaultRetryPolicy().MaxAttempts
			out = append(out, HintsDelta{Param: "retry", From: "disabled", To: fmt.Sprintf("%d attempts", v),
				Why: fmt.Sprintf("%d deadline timeouts with no retry policy", rep.Timeouts), RetryMaxAttempts: &v})
		} else if rep.Meta.RestartFallbacks > 0 {
			v := hs.RetryMaxAttempts + 2
			out = append(out, HintsDelta{Param: "retry", From: fmt.Sprintf("%d attempts", hs.RetryMaxAttempts), To: fmt.Sprintf("%d attempts", v),
				Why: "retries exhausted into restart fallbacks", RetryMaxAttempts: &v})
		}
	}

	// Config-level rule: a dominant synchronous write phase: hide it
	// behind compute. Not an MPI-IO hint, so it reads the run's meta.
	if w, ok := writeShare(rep.Meta); ok {
		v := true
		out = append(out, HintsDelta{Param: "async_io", From: "false", To: "true",
			Why: fmt.Sprintf("write phase is %.1f%% of the makespan", 100*w/rep.Meta.Makespan), AsyncIO: &v})
	}
	return out
}
