package enzo

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/machine"
)

// TestFootprintGuardRejectsAMR512 pins the guard's contract: AMR512 under
// the default budget must fail fast with a *FootprintError (before any
// grid data is allocated), a negative budget must lift the guard, and the
// error text must point the user at the -membudget escape hatch.
func TestFootprintGuardRejectsAMR512(t *testing.T) {
	cfg := AMR512()
	err := cfg.checkFootprint(1024)
	var fe *FootprintError
	if !errors.As(err, &fe) {
		t.Fatalf("checkFootprint(AMR512) = %v, want *FootprintError", err)
	}
	if fe.Problem != "AMR512" || fe.Estimate <= fe.Budget {
		t.Fatalf("bad FootprintError fields: %+v", fe)
	}
	if !strings.Contains(fe.Error(), "-membudget") {
		t.Fatalf("error does not mention the -membudget escape hatch: %v", fe)
	}

	cfg.MemBudget = -1
	if err := cfg.checkFootprint(1024); err != nil {
		t.Fatalf("negative MemBudget should disable the guard, got %v", err)
	}
	// An explicit budget above the estimate also admits the run.
	cfg.MemBudget = cfg.EstimateFootprint(1024) + 1
	if err := cfg.checkFootprint(1024); err != nil {
		t.Fatalf("budget above estimate should pass, got %v", err)
	}
}

// TestFootprintGuardAdmitsDefaultProblems: every problem the standard
// sweeps run must clear the default budget at every swept rank count.
func TestFootprintGuardAdmitsDefaultProblems(t *testing.T) {
	for _, cfg := range []Config{Tiny(), AMR64(), AMR128(), AMR256()} {
		for _, np := range []int{1, 8, 64, 256} {
			if err := cfg.checkFootprint(np); err != nil {
				t.Errorf("%s np=%d rejected by default budget: %v", cfg.Problem, np, err)
			}
		}
	}
}

// TestFootprintGuardTripsAtRunOnce: the guard must fire from Run
// itself, before the simulation starts, so an over-budget run never
// begins allocating grids.
func TestFootprintGuardTripsAtRunOnce(t *testing.T) {
	cfg := AMR512()
	_, err := Run(RunSpec{Machine: machine.Cluster1024(), FS: "pvfs", Procs: 8, Config: cfg, Backend: BackendMPIIO})
	var fe *FootprintError
	if !errors.As(err, &fe) {
		t.Fatalf("Run(AMR512) = %v, want *FootprintError", err)
	}
}
