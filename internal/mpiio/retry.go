package mpiio

import (
	"fmt"
	"strconv"

	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// RetryPolicy configures per-request timeouts and bounded exponential
// backoff for the raw file-system requests the MPI-IO layer issues — the
// ADIO-level resilience a site would bolt onto ROMIO when one I/O server
// straggles. All durations are virtual seconds, and every quantity is
// derived deterministically from the request's identity, so enabling the
// policy changes no scheduling order: a run with faults is exactly
// reproducible.
type RetryPolicy struct {
	// Enabled turns the machinery on. Disabled (the default), every
	// request uses the plain blocking path and the virtual timings are
	// bit-identical to a build without this feature.
	Enabled bool
	// Timeout is the first attempt's budget. An attempt whose device
	// completion lands past now+budget is abandoned at the deadline (the
	// wait was still paid) and retried.
	Timeout float64
	// MaxAttempts bounds the attempts per request (minimum 1). When the
	// last attempt times out the operation panics with *IOError, which the
	// simulation engine surfaces as sim.PanicError.
	MaxAttempts int
	// Backoff is the wait before the second attempt; it and the timeout
	// grow by Multiplier after every failure, so a straggling (but live)
	// server eventually fits the budget and the operation succeeds.
	Backoff    float64
	Multiplier float64
	// JitterFrac adds jitter*Backoff, jitter in [0, JitterFrac), to each
	// backoff. The jitter is a hash of (rank, request ordinal, attempt) —
	// deterministic, but it desynchronizes the retry storm of many ranks
	// that timed out on the same straggler at the same virtual instant.
	JitterFrac float64
}

// DefaultRetryPolicy is a sane starting point: five attempts, doubling
// from a 30-virtual-second budget, quarter-backoff jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Enabled: true, Timeout: 30, MaxAttempts: 5,
		Backoff: 0.5, Multiplier: 2, JitterFrac: 0.25}
}

// normalized fills in unusable zero values and clamps negatives: a negative
// backoff or jitter fraction would produce a negative inter-attempt wait,
// which the simulation engine (rightly) refuses as a clock moving backwards.
func (rp RetryPolicy) normalized() RetryPolicy {
	if rp.MaxAttempts < 1 {
		rp.MaxAttempts = 1
	}
	if rp.Multiplier < 1 {
		rp.Multiplier = 1
	}
	if rp.Timeout <= 0 {
		rp.Timeout = DefaultRetryPolicy().Timeout
	}
	if rp.Backoff < 0 {
		rp.Backoff = 0
	}
	if rp.JitterFrac < 0 {
		rp.JitterFrac = 0
	}
	return rp
}

// IOError reports a request whose retries were exhausted: every attempt's
// device completion lay beyond its deadline. It is raised as a panic from
// inside the rank body (MPI-IO calls have no error return, matching the
// blocking File API) and surfaces to the caller of sim.Engine.Run wrapped
// in a *sim.PanicError; use ExtractIOError to unwrap it.
type IOError struct {
	Op       string // "read" or "write"
	File     string
	Rank     int
	Off, Len int64
	Attempts int
	Cause    error // the last attempt's *pfs.DeviceError
}

func (e *IOError) Error() string {
	return fmt.Sprintf("mpiio: rank %d: %s %q [%d,+%d): %d attempts exhausted: %v",
		e.Rank, e.Op, e.File, e.Off, e.Len, e.Attempts, e.Cause)
}

func (e *IOError) Unwrap() error { return e.Cause }

// ExtractIOError unwraps the *IOError carried by an engine run failure (or
// passed directly), if any.
func ExtractIOError(err error) (*IOError, bool) {
	if ioe, ok := err.(*IOError); ok {
		return ioe, true
	}
	if pe, ok := err.(*sim.PanicError); ok {
		if ioe, ok := pe.Value.(*IOError); ok {
			return ioe, true
		}
	}
	return nil, false
}

// jitter01 maps (rank, request ordinal, attempt) to [0,1) via FNV-1a —
// cheap, stateless and identical on every run.
func jitter01(rank int, req int64, attempt int) float64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	mix(uint64(rank))
	mix(uint64(req))
	mix(uint64(attempt))
	return float64(h>>11) / float64(1<<53)
}

// dev sends one request to the device and returns its completion. A Behind
// request carries no deadline, and with the policy disabled every request is
// the plain one — as it is in effect on a file system whose servers are
// client-local and cannot straggle, where no deadline is ever missed.
// Otherwise the request goes down By a deadline that grows with each attempt
// until it succeeds or the policy's attempts are exhausted, backing off (with
// deterministic jitter) between attempts. Exhaustion panics with *IOError.
func (f *File) dev(r pfs.Req) float64 {
	if r.Mode == pfs.Behind || !f.hints.Retry.Enabled {
		end, _ := f.f.Do(f.client, r) // only a By request can fail
		return end
	}
	rp := f.hints.Retry.normalized()
	req := f.reqs
	f.reqs++
	timeout := rp.Timeout
	backoff := rp.Backoff
	r.Mode = pfs.By
	for a := 1; ; a++ {
		r.Deadline = f.client.Proc.Now() + timeout
		end, err := f.f.Do(f.client, r)
		if err == nil {
			return end
		}
		if a == rp.MaxAttempts {
			panic(&IOError{Op: r.Op(), File: f.f.Name(), Rank: f.r.Rank(),
				Off: r.Off, Len: r.Len(), Attempts: a, Cause: err})
		}
		obs.AddRetry(f.client.Proc, f.f.Name())
		sp := obs.Begin(f.client.Proc, obs.LayerMPIIO, "retry_backoff").
			Attr("attempt", strconv.Itoa(a))
		wait := backoff * (1 + rp.JitterFrac*jitter01(f.r.Rank(), req, a))
		f.client.Proc.Advance(wait)
		sp.End()
		timeout *= rp.Multiplier
		backoff *= rp.Multiplier
	}
}
