package diag

import (
	"fmt"

	"repro/internal/mpiio"
)

// HintsDelta is one candidate tuning change derived from a report — the
// rendered form of an mpiio.TuneStep, the ROADMAP's hint autotuner loop.
// Exactly one of the typed fields is set; ApplyConfig (autotune.go) patches
// it into an enzo.Config, where the MPI-IO hint overrides and AsyncIO (a
// Config knob, not an MPI-IO hint) both live.
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

// ProbeFromReport distills a report into the neutral probe summary the
// mpiio tuner consumes (mpiio cannot import this package). Zero-valued
// fields keep the matching rules silent, so a partial report never
// produces a guessed hint.
func ProbeFromReport(rep *Report) mpiio.Probe {
	if rep == nil {
		return mpiio.Probe{}
	}
	return mpiio.Probe{
		Procs:             rep.Meta.Procs,
		DataServers:       rep.FS.DataServers,
		StripeUnit:        rep.FS.StripeUnitBytes,
		CollectiveOps:     rep.Traffic.CollectiveOps,
		LogicalReadBytes:  rep.Traffic.LogicalReadBytes,
		PhysicalReadBytes: rep.Traffic.PhysicalReadBytes,
		Requests:          rep.Sizes.Requests,
		SmallRequests:     rep.Sizes.SmallRequests,
		Timeouts:          rep.Timeouts,
		RestartFallbacks:  rep.Meta.RestartFallbacks,
	}
}

// hintsFromSet reconstructs the mpiio hint vector a report recorded.
func hintsFromSet(hs HintSet) mpiio.Hints {
	h := mpiio.DefaultHints()
	h.CBNodes = hs.CBNodes
	h.CBBufferSize = hs.CBBufferBytes
	h.DSBufferSize = hs.SieveBufferBytes
	h.DataSieving = hs.DataSieving
	h.CBForce = hs.CBForce
	if hs.RetryEnabled {
		h.Retry = mpiio.DefaultRetryPolicy()
		h.Retry.MaxAttempts = hs.RetryMaxAttempts
	} else {
		h.Retry = mpiio.RetryPolicy{}
	}
	return h
}

// deltaFromStep renders one tuner step as a typed delta, reading the
// applied value back out of the tuned vector.
func deltaFromStep(st mpiio.TuneStep, tuned mpiio.Hints) HintsDelta {
	d := HintsDelta{Param: st.Param, From: st.From, To: st.To, Why: st.Why}
	switch st.Param {
	case "cb_nodes":
		v := tuned.CBNodes
		d.CBNodes = &v
	case "cb_buffer":
		v := tuned.CBBufferSize
		d.CBBufferSize = &v
	case "sieve_buffer":
		v := tuned.DSBufferSize
		d.DSBufferSize = &v
	case "data_sieving":
		v := tuned.DataSieving
		d.DataSieving = &v
	case "retry":
		v := tuned.Retry.MaxAttempts
		d.RetryMaxAttempts = &v
	}
	return d
}

// Suggest derives candidate hints deltas from a report's pathologies by
// running the mpiio tuner's rule set ((Hints).AutoTuneSteps — the single
// source of truth for the detector→hint mapping) over the report's
// recorded hint vector, plus the config-level async rule. The list is
// deterministic (fixed rule order) and conservative: each delta targets
// one detected condition, so a rerun with the delta applied should be no
// slower.
func Suggest(rep *Report) []HintsDelta {
	if rep == nil {
		return nil
	}
	var out []HintsDelta

	probe := ProbeFromReport(rep)
	h := mpiio.Hints{}
	if len(rep.Hints) > 0 {
		h = hintsFromSet(rep.Hints[0])
	} else {
		// No recorded hint set: the hint-shaped rules have no baseline to
		// diff against, so silence their inputs and keep only the
		// fault-counter rule (which can arm retries from scratch).
		probe.CollectiveOps = 0
		probe.LogicalReadBytes, probe.PhysicalReadBytes = 0, 0
		probe.StripeUnit = 0
	}
	tuned, steps := h.AutoTuneSteps(probe)
	for _, st := range steps {
		out = append(out, deltaFromStep(st, tuned))
	}

	// Config-level rule: a dominant synchronous write phase: hide it
	// behind compute. Not an MPI-IO hint, so it lives here, above the
	// mpiio tuner.
	if m := rep.Meta; !m.Async && m.Makespan > 0 {
		if w := m.Phase("write"); w >= 0.2*m.Makespan {
			v := true
			out = append(out, HintsDelta{
				Param:   "async_io",
				From:    "false",
				To:      "true",
				Why:     fmt.Sprintf("write phase is %.1f%% of the makespan", 100*w/m.Makespan),
				AsyncIO: &v,
			})
		}
	}
	return out
}
