package faultfs

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/enzo"
	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/sim"
)

func newXFS() pfs.FileSystem {
	return pfs.NewXFS(machine.New(machine.ByName("origin2000")), pfs.DefaultXFS())
}

func TestFaultModesAlterStoredData(t *testing.T) {
	for _, mode := range []Mode{CorruptWrite, DropWrite, TornWrite} {
		mode := mode
		t.Run(fmt.Sprintf("mode%d", mode), func(t *testing.T) {
			fs := Wrap(newXFS(), Config{Mode: mode, EveryN: 1})
			eng := sim.NewEngine()
			payload := bytes.Repeat([]byte{0x42}, 1000)
			got := make([]byte, len(payload))
			eng.Spawn("c", func(p *sim.Proc) {
				c := pfs.Client{Proc: p, Node: 0}
				f, _ := fs.Create(c, "victim")
				f.WriteAt(c, payload, 0)
				f.ReadAt(c, got, 0)
			})
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(got, payload) {
				t.Fatal("fault mode left the data intact")
			}
			if fs.Injected() != 1 {
				t.Fatalf("injected = %d", fs.Injected())
			}
		})
	}
}

func TestEveryNAndMinBytesFilters(t *testing.T) {
	fs := Wrap(newXFS(), Config{Mode: CorruptWrite, EveryN: 3, MinBytes: 100})
	eng := sim.NewEngine()
	eng.Spawn("c", func(p *sim.Proc) {
		c := pfs.Client{Proc: p, Node: 0}
		f, _ := fs.Create(c, "x")
		for i := 0; i < 9; i++ {
			f.WriteAt(c, make([]byte, 200), int64(i)*200)
		}
		f.WriteAt(c, make([]byte, 10), 10000) // too small to count
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fs.Injected() != 3 {
		t.Fatalf("injected = %d, want 3 (every 3rd of 9 eligible writes)", fs.Injected())
	}
}

// TestVerifierCatchesInjectedFaults is the point of the package: run the
// full application over a faulty file system and require the end-to-end
// verification to fail for every fault mode.
func TestVerifierCatchesInjectedFaults(t *testing.T) {
	machCfg := machine.Config{
		Name: "t", Nodes: 8, ProcsPerNode: 1,
		WireLatency: 20e-6, LinkBW: 150e6, SendOverhead: 2e-6, RecvOverhead: 2e-6,
		MemLatency: 1e-6, MemCopyBW: 800e6, ComputeRate: 1e9,
	}
	for _, mode := range []Mode{CorruptWrite, DropWrite, TornWrite} {
		mode := mode
		t.Run(fmt.Sprintf("mode%d", mode), func(t *testing.T) {
			var injector *FS
			res, err := enzo.Run(enzo.RunSpec{Machine: machCfg, FS: "xfs", Procs: 4, Config: enzo.Tiny(), Backend: enzo.BackendMPIIO,
				Wrap: func(fs pfs.FileSystem) pfs.FileSystem {
					// Target large-ish data writes late in the stream so
					// the fault lands in dump data, not IC files that get
					// rewritten: every 5th write of >= 4KB.
					injector = Wrap(fs, Config{Mode: mode, EveryN: 5, MinBytes: 4096})
					return injector
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if injector.Injected() == 0 {
				t.Fatal("no faults were injected; test proves nothing")
			}
			if res.Verified {
				t.Fatalf("verification passed despite %d injected faults", injector.Injected())
			}
		})
	}
}

// TestCleanRunStillVerifies guards the wrapper itself: with faults
// disabled (EveryN huge) the application must verify as usual.
func TestCleanRunStillVerifies(t *testing.T) {
	machCfg := machine.Config{
		Name: "t", Nodes: 8, ProcsPerNode: 1,
		WireLatency: 20e-6, LinkBW: 150e6, SendOverhead: 2e-6, RecvOverhead: 2e-6,
		MemLatency: 1e-6, MemCopyBW: 800e6, ComputeRate: 1e9,
	}
	res, err := enzo.Run(enzo.RunSpec{Machine: machCfg, FS: "xfs", Procs: 4, Config: enzo.Tiny(), Backend: enzo.BackendMPIIO,
		Wrap: func(fs pfs.FileSystem) pfs.FileSystem {
			return Wrap(fs, Config{Mode: CorruptWrite, EveryN: 1 << 40})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("clean run failed verification through the wrapper")
	}
}
