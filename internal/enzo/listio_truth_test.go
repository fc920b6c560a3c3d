package enzo

import (
	"fmt"
	"testing"

	"repro/internal/machine"
)

// TestScatteredRestartVerifiedAcrossStack: the particle columns of every
// grid now travel through one list-I/O pass (WriteList on dump, ReadList
// on restart) in both the raw and the compressed MPI-IO layouts. The
// restart must stay bit-identical to the pre-dump state — Verified is the
// hash comparison — on every backend × striped file system × codec
// combination that exercises those paths, and repeated runs must not move
// a single virtual timestamp.
func TestScatteredRestartVerifiedAcrossStack(t *testing.T) {
	cases := []struct {
		backend Backend
		codec   string
	}{
		{BackendMPIIO, ""},     // rawio: particleColList over raw columns
		{BackendMPIIO, "rle"},  // rawzio: list pass over compressed segments
		{BackendMPIIO, "lzss"}, // rawzio with the heavier codec
		{BackendHDF5, ""},      // control: non-list restart path
	}
	for _, fsKind := range []string{"pvfs", "gpfs"} {
		for _, tc := range cases {
			fsKind, tc := fsKind, tc
			t.Run(fmt.Sprintf("%v-%s-codec=%s", tc.backend, fsKind, tc.codec), func(t *testing.T) {
				cfg := Tiny()
				cfg.Codec = tc.codec
				run := func() *Result {
					res, err := Run(RunSpec{Machine: machine.ChibaCity(), FS: fsKind, Procs: 4, Config: cfg, Backend: tc.backend})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				a := run()
				if !a.Verified {
					t.Fatal("restart state did not match the pre-dump state")
				}
				if b := run(); a.Makespan != b.Makespan {
					t.Fatalf("runs diverged: %.12f != %.12f", a.Makespan, b.Makespan)
				}
			})
		}
	}
}
