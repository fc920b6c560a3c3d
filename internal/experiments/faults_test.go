package experiments

import (
	"bytes"
	"testing"
)

func TestFaultSweepQuick(t *testing.T) {
	o := Options{Quick: true}
	stragglers, err := stragglerSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	recovery, err := recoverySweep(o)
	if err != nil {
		t.Fatal(err)
	}
	// 2 platforms x 2 backends x 3 slowdowns.
	if len(stragglers) != 12 {
		t.Fatalf("straggler rows = %d, want 12", len(stragglers))
	}
	for _, r := range stragglers {
		if !r.Verified {
			t.Fatalf("straggler case %s/%s x%g not verified", r.FS, r.Backend, r.Slowdown)
		}
		if r.Slowdown == 1 && r.Factor != 1 {
			t.Fatalf("healthy row factor = %g", r.Factor)
		}
		if r.Slowdown > 1 && r.Factor <= 1 {
			t.Fatalf("%s/%s x%g: dump no slower than healthy (factor %.3f)",
				r.FS, r.Backend, r.Slowdown, r.Factor)
		}
	}
	// 2 codecs x 3 rates + the fallback case.
	if len(recovery) != 7 {
		t.Fatalf("recovery rows = %d, want 7", len(recovery))
	}
	for _, r := range recovery {
		if !r.Verified {
			t.Fatalf("recovery case codec=%s 1/%d not verified", r.Codec, r.EveryN)
		}
		if r.EveryN == 0 && (r.Injected != 0 || r.ScrubFailures != 0 || r.Redumps != 0) {
			t.Fatalf("clean-medium row recorded faults: %+v", r)
		}
		if r.EveryN > 1 && r.Injected > 0 && (r.ScrubFailures == 0 || r.Redumps == 0) {
			t.Fatalf("corruption not recovered: %+v", r)
		}
	}
	fallback := recovery[len(recovery)-1]
	if fallback.Fallbacks != 1 {
		t.Fatalf("fallback case Fallbacks = %d, want 1", fallback.Fallbacks)
	}

	// The sweep is deterministic: a second invocation is bit-identical.
	stragglers2, err := stragglerSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	recovery2, err := recoverySweep(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range stragglers {
		if stragglers[i] != stragglers2[i] {
			t.Fatalf("straggler row %d diverged:\n%+v\n%+v", i, stragglers[i], stragglers2[i])
		}
	}
	for i := range recovery {
		if recovery[i] != recovery2[i] {
			t.Fatalf("recovery row %d diverged:\n%+v\n%+v", i, recovery[i], recovery2[i])
		}
	}

	var buf bytes.Buffer
	PrintStragglerSweep(&buf, stragglers)
	PrintRecoverySweep(&buf, recovery)
	if buf.Len() == 0 {
		t.Fatal("print helpers produced no output")
	}
}
