// The closed tuning loop: probe → Snapshot → Suggest → tuned Config.
// Suggest (suggest.go) owns the hint rules, beside the detectors they
// mirror; this file owns the orchestration — deriving the reduced-depth
// probe problem, running it traced, and applying the resulting deltas at
// the enzo.Config level. AutoTune is the one entry point: the CLIs'
// -autotune (runflags.Tune), the sweeps' Options.AutoTune
// (experiments.runCase) and the hints sweep all call it before they run
// the tuned configuration.
package diag

import (
	"fmt"

	"repro/internal/enzo"
	"repro/internal/machine"
	"repro/internal/mpiio"
	"repro/internal/obs"
)

// ApplyConfig returns cfg with this delta patched in at the Config level
// (the autotuner's write path: CBNodes, the buffer-size overrides, the
// sieving tri-state, the retry policy, AsyncIO).
func (d HintsDelta) ApplyConfig(cfg enzo.Config) enzo.Config {
	switch {
	case d.CBNodes != nil:
		cfg.CBNodes = *d.CBNodes
	case d.CBBufferSize != nil:
		cfg.CBBufferSize = *d.CBBufferSize
	case d.DSBufferSize != nil:
		cfg.SieveBufferSize = *d.DSBufferSize
	case d.DataSieving != nil:
		if *d.DataSieving {
			cfg.DataSieving = 1
		} else {
			cfg.DataSieving = -1
		}
	case d.RetryMaxAttempts != nil:
		if !cfg.IORetry.Enabled {
			cfg.IORetry = mpiio.DefaultRetryPolicy()
		}
		cfg.IORetry.MaxAttempts = *d.RetryMaxAttempts
	case d.AsyncIO != nil:
		cfg.AsyncIO = *d.AsyncIO
	}
	return cfg
}

// ApplyAllConfig folds every delta into cfg in order.
func ApplyAllConfig(deltas []HintsDelta, cfg enzo.Config) enzo.Config {
	for _, d := range deltas {
		cfg = d.ApplyConfig(cfg)
	}
	return cfg
}

// ProbeConfig derives the reduced-depth probe problem from a run
// configuration: the root grid halves per axis (not below 16 cells), the
// particle count shrinks with the volume, and the dump/restart cycle runs
// exactly once with no dynamic refinement passes. Everything that shapes
// the I/O pattern — backend-visible knobs, codec, hint overrides, retry
// policy, scrub/castore — carries over, so the detectors see the same
// access structure at a fraction of the cost.
func ProbeConfig(cfg enzo.Config) enzo.Config {
	p := cfg
	p.Problem = cfg.Problem + "-probe"
	shrink := 1
	for i, d := range p.Dims {
		if d/2 >= 16 {
			p.Dims[i] = d / 2
			shrink *= 2
		}
	}
	if p.NParticles > 0 && shrink > 1 {
		n := p.NParticles / shrink
		if n < 1 {
			n = 1
		}
		p.NParticles = n
	}
	p.Dumps = 1
	p.RefineCycles = 0
	return p
}

// AutoTune closes the tuning loop for one configuration: it runs the
// short deterministic probe (ProbeConfig — one dump step plus one restart
// read at reduced depth), snapshots the traced run through the detector
// registry's input, derives the candidate hint deltas with Suggest (the
// single source of truth for the detector→hint mapping), verifies each
// against the probe itself, and returns cfg with the surviving deltas
// applied, alongside those deltas and the probe's report. Tuning an
// already-tuned configuration applies no deltas and returns it unchanged.
//
// The verification pass is what makes the loop closed rather than
// open-loop heuristics: a delta is dropped unrun if enzo.RunSpec.Validate
// refuses the tuned spec, and kept only if the probe, rerun with it on top
// of the deltas already kept, spends strictly less I/O time. That drops
// a delta that regresses (write-behind's memcpy tax can exceed its overlap
// gain when dumps are fast) and, as firmly, a delta the probe cannot see:
// virtual time is exact, so an identical I/O time means the hint changed
// nothing at probe scale — cb_nodes on a probe whose arrays all fit one
// MinFDSize file domain, say — and a rule nobody measured is not applied.
// The two-phase exchange is sparse, so an aggregator more is a message more
// per rank and collective; such a change has to earn its place.
func AutoTune(machCfg machine.Config, fsKind string, nprocs int,
	cfg enzo.Config, backend enzo.Backend) (enzo.Config, []HintsDelta, *Report, error) {
	probeCfg := ProbeConfig(cfg)
	spec := enzo.RunSpec{Machine: machCfg, FS: fsKind, Procs: nprocs, Config: probeCfg, Backend: backend, Tracer: obs.NewTracer()}
	res, err := enzo.Run(spec)
	if err != nil {
		return cfg, nil, nil, fmt.Errorf("autotune probe: %w", err)
	}
	rep := Snapshot(spec.Tracer, MetaFromResult(machCfg.Name, res, probeCfg))
	spec.Tracer = nil // the verify runs are untraced
	var deltas []HintsDelta
	best := res.IOTime()
	for _, d := range Suggest(rep) {
		cand := append(deltas[:len(deltas):len(deltas)], d)
		spec.Config = ApplyAllConfig(cand, probeCfg)
		if spec.Validate() != nil {
			continue // the run refuses the composition: it cannot change it
		}
		vres, err := enzo.Run(spec)
		if err != nil {
			return cfg, nil, rep, fmt.Errorf("autotune verify: %w", err)
		}
		if vres.IOTime() < best {
			deltas, best = cand, vres.IOTime()
		}
	}
	return ApplyAllConfig(deltas, cfg), deltas, rep, nil
}
