// Hint autotuning: derive a tuned hint vector from the counters of a
// short deterministic probe run instead of hand-picking per machine×file
// system. The rule set is the single source of truth for the
// detector→hint mapping — diag.Suggest renders these same steps as
// HintsDelta findings, and diag.AutoTune, the one tuning entry point,
// applies them to an enzo.Config —
// so a hint the tuner would pick and a hint the doctor would suggest can
// never disagree.
//
// mpiio sits below the diagnosis layer, so the tuner consumes a neutral
// Probe summary rather than a diag.Report; diag.ProbeFromReport distills
// one from a traced run.
package mpiio

import "fmt"

// Probe summarizes what one short probe run (one dump step plus one
// restart read at reduced depth) observed, as distilled from its
// diagnosis report. Zero values mean "not observed": a rule whose inputs
// are missing stays silent rather than guessing.
type Probe struct {
	// Procs is the number of MPI ranks in the probe run.
	Procs int
	// DataServers and StripeUnit describe the striped volume (0 when the
	// file system is not striped or its geometry is unknown).
	DataServers int
	StripeUnit  int64
	// CollectiveOps counts collective MPI-IO data operations observed —
	// the aggregator-shape rules only apply when the workload actually
	// uses collective I/O.
	CollectiveOps int64
	// LogicalReadBytes is what the application asked to read;
	// PhysicalReadBytes is what the file system transferred for it. The
	// gap is data sieving's read amplification.
	LogicalReadBytes  int64
	PhysicalReadBytes int64
	// Requests and SmallRequests profile the device request sizes:
	// SmallRequests counts requests below the stripe unit (or the 64KiB
	// default threshold when the unit is unknown).
	Requests      int64
	SmallRequests int64
	// Timeouts counts pfs deadline timeouts; RestartFallbacks counts
	// restarts that fell back to an older generation after exhausting
	// retries.
	Timeouts         int64
	RestartFallbacks int
}

// TuneStep records one rule AutoTune applied: which hint parameter moved,
// its rendered before/after values, and the observation that justified
// it. Params match diag.HintsDelta ("cb_nodes", "cb_buffer",
// "sieve_buffer", "data_sieving", "retry").
type TuneStep struct {
	Param string
	From  string
	To    string
	Why   string
}

func (s TuneStep) String() string {
	return fmt.Sprintf("%s: %s -> %s (%s)", s.Param, s.From, s.To, s.Why)
}

// AutoTuneSteps returns the hint vector tuned against the probe's
// observations and the rules it applied, in application order. Hints the
// probe gives no reason to move are kept, so tuning an already-optimal
// vector is the identity.
//
// Rule 1 (cb_nodes): with collective I/O on a striped volume, the
// effective aggregator count should match the data-server count —
// fewer aggregators leave servers idle, more contend for them.
//
// Rule 2 (cb_buffer): an aggregator flushes its file domain in
// CBBufferSize chunks. A chunk that is not a whole number of stripe
// units splits a stripe across two server requests on every flush, so a
// misaligned buffer is rounded down to a stripe multiple; and when small
// device requests dominate the profile, a buffer below one full stripe
// set (DataServers × StripeUnit) is raised to it so each flush can fill
// every server's stripe.
//
// Rule 3 (sieve_buffer / data_sieving): read amplification ≥ 4× means
// sieved holes dominate the transfers — turn sieving off; milder
// amplification with an oversized sieve buffer aligns the buffer down to
// the stripe unit. Requires at least 1MiB of amplified traffic so noise
// never flips the hint.
//
// Rule 4 (retry): observed deadline timeouts with no retry policy arm
// the default one; timeouts that still exhausted into restart fallbacks
// raise the attempt budget.
func (h Hints) AutoTuneSteps(p Probe) (Hints, []TuneStep) {
	var steps []TuneStep
	step := func(param, from, to, why string) {
		steps = append(steps, TuneStep{Param: param, From: from, To: to, Why: why})
	}

	// Rule 1: cb_nodes.
	if p.DataServers >= 2 && p.CollectiveOps > 0 {
		eff := h.CBNodes
		if eff <= 0 {
			eff = p.Procs
		}
		if eff != p.DataServers {
			step("cb_nodes",
				fmt.Sprint(h.CBNodes), fmt.Sprint(p.DataServers),
				fmt.Sprintf("%d effective aggregators vs %d data servers", eff, p.DataServers))
			h.CBNodes = p.DataServers
		}
	}

	// Rule 2: cb_buffer vs the stripe unit and the request-size profile.
	if p.StripeUnit > 0 && p.CollectiveOps > 0 && h.CBBufferSize > 0 {
		switch {
		case h.CBBufferSize%p.StripeUnit != 0:
			v := h.CBBufferSize - h.CBBufferSize%p.StripeUnit
			if v < p.StripeUnit {
				v = p.StripeUnit
			}
			step("cb_buffer",
				fmtBytes(h.CBBufferSize), fmtBytes(v),
				fmt.Sprintf("collective buffer is not a whole number of %s stripe units: every flush splits a stripe across two server requests", fmtBytes(p.StripeUnit)))
			h.CBBufferSize = v
		case p.DataServers >= 2 && p.Requests > 0 && p.SmallRequests*2 >= p.Requests &&
			h.CBBufferSize < int64(p.DataServers)*p.StripeUnit:
			v := int64(p.DataServers) * p.StripeUnit
			step("cb_buffer",
				fmtBytes(h.CBBufferSize), fmtBytes(v),
				fmt.Sprintf("%d of %d device requests below the stripe unit: one flush should fill every server's stripe", p.SmallRequests, p.Requests))
			h.CBBufferSize = v
		}
	}

	// Rule 3: read amplification.
	if l, phys := p.LogicalReadBytes, p.PhysicalReadBytes; l > 0 && phys-l >= 1<<20 {
		amp := float64(phys) / float64(l)
		switch {
		case amp >= 4 && h.DataSieving:
			step("data_sieving", "true", "false",
				fmt.Sprintf("read amplification %.2fx: sieved holes dominate the transfers", amp))
			h.DataSieving = false
		case amp >= 1.5 && h.DataSieving && p.StripeUnit > 0 && h.DSBufferSize > p.StripeUnit:
			step("sieve_buffer",
				fmtBytes(h.DSBufferSize), fmtBytes(p.StripeUnit),
				fmt.Sprintf("read amplification %.2fx: align sieve chunks to the stripe unit", amp))
			h.DSBufferSize = p.StripeUnit
		}
	}

	// Rule 4: retry budget from observed fault counters.
	if p.Timeouts > 0 {
		if !h.Retry.Enabled {
			h.Retry = DefaultRetryPolicy()
			step("retry",
				"disabled", fmt.Sprintf("%d attempts", h.Retry.MaxAttempts),
				fmt.Sprintf("%d deadline timeouts with no retry policy", p.Timeouts))
		} else if p.RestartFallbacks > 0 {
			v := h.Retry.MaxAttempts + 2
			step("retry",
				fmt.Sprintf("%d attempts", h.Retry.MaxAttempts), fmt.Sprintf("%d attempts", v),
				"retries exhausted into restart fallbacks")
			h.Retry.MaxAttempts = v
		}
	}

	return h, steps
}

// fmtBytes renders byte counts the way the diagnosis layer does, so a
// TuneStep and the HintsDelta built from it print identically.
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
