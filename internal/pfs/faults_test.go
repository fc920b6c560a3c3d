package pfs

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// deadlineFixture builds one of the striped file systems and returns it
// with its fault-injection interface.
func deadlineFixture(t *testing.T, kind string) (FileSystem, StripeFaultInjector, *machine.Machine) {
	t.Helper()
	var fs FileSystem
	var mach *machine.Machine
	switch kind {
	case "pvfs":
		mach = machine.New(machine.ByName("chiba"))
		fs = NewPVFS(mach, DefaultPVFS())
	case "gpfs":
		mach = machine.New(machine.ByName("sp2"))
		fs = NewGPFS(mach, DefaultGPFS())
	default:
		t.Fatalf("unknown kind %q", kind)
	}
	inj, ok := fs.(StripeFaultInjector)
	if !ok {
		t.Fatalf("%s does not implement StripeFaultInjector", kind)
	}
	return fs, inj, mach
}

func TestDeadlineOpsHealthyMatchBlocking(t *testing.T) {
	for _, kind := range []string{"pvfs", "gpfs"} {
		t.Run(kind, func(t *testing.T) {
			// Blocking reference run.
			fsA, _, _ := deadlineFixture(t, kind)
			engA := sim.NewEngine()
			data := bytes.Repeat([]byte{7}, 300000)
			var blockEnd float64
			engA.Spawn("c", func(p *sim.Proc) {
				c := Client{Proc: p, Node: 0}
				f, _ := fsA.Create(c, "x")
				f.WriteAt(c, data, 0)
				buf := make([]byte, len(data))
				f.ReadAt(c, buf, 0)
				blockEnd = p.Now()
			})
			if err := engA.Run(); err != nil {
				t.Fatal(err)
			}
			// Deadline run with an unreachable deadline: identical times,
			// identical bytes.
			fsB, _, _ := deadlineFixture(t, kind)
			engB := sim.NewEngine()
			var dlEnd float64
			engB.Spawn("c", func(p *sim.Proc) {
				c := Client{Proc: p, Node: 0}
				f, _ := fsB.Create(c, "x")
				if _, err := f.Do(c, Req{Write: true, Mode: By, Buf: data, Deadline: math.Inf(1)}); err != nil {
					panic(err)
				}
				buf := make([]byte, len(data))
				if err := ReadAtDeadline(f, c, buf, 0, math.Inf(1)); err != nil {
					panic(err)
				}
				if !bytes.Equal(buf, data) {
					panic("deadline read returned wrong bytes")
				}
				dlEnd = p.Now()
			})
			if err := engB.Run(); err != nil {
				t.Fatal(err)
			}
			if blockEnd != dlEnd {
				t.Fatalf("deadline path diverged from blocking path: %.9f != %.9f", dlEnd, blockEnd)
			}
		})
	}
}

func TestDeadlineExceededReturnsDeviceErrorWithoutBytes(t *testing.T) {
	for _, kind := range []string{"pvfs", "gpfs"} {
		t.Run(kind, func(t *testing.T) {
			fs, inj, _ := deadlineFixture(t, kind)
			inj.DegradeDataServer(0, 1000)
			eng := sim.NewEngine()
			data := bytes.Repeat([]byte{9}, 256<<10)
			eng.Spawn("c", func(p *sim.Proc) {
				c := Client{Proc: p, Node: 0}
				f, _ := fs.Create(c, "x")
				deadline := p.Now() + 1e-4
				_, err := f.Do(c, Req{Write: true, Mode: By, Buf: data, Deadline: deadline})
				var de *DeviceError
				if !errors.As(err, &de) {
					panic("degraded write did not time out")
				}
				if de.Op != "write" || de.Completion <= de.Deadline {
					panic("DeviceError fields inconsistent")
				}
				// The caller abandons the request at the deadline (GPFS may
				// already be slightly past it from synchronous lock traffic)
				// and must not wait for the straggler's completion.
				if p.Now() < deadline || p.Now() >= de.Completion {
					panic("caller clock not cut off at the deadline")
				}
				// No bytes may have been stored by the failed write.
				buf := make([]byte, len(data))
				f.ReadAt(c, buf, 0)
				for _, b := range buf {
					if b != 0 {
						panic("timed-out write stored bytes")
					}
				}
			})
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if fs.Stats().BytesWritten != 0 {
				t.Fatalf("timed-out write counted %d bytes in stats", fs.Stats().BytesWritten)
			}
		})
	}
}

func TestDeadServerDeadlineOpsReportDead(t *testing.T) {
	for _, kind := range []string{"pvfs", "gpfs"} {
		t.Run(kind, func(t *testing.T) {
			fs, inj, _ := deadlineFixture(t, kind)
			eng := sim.NewEngine()
			data := bytes.Repeat([]byte{1}, 256<<10)
			eng.Spawn("c", func(p *sim.Proc) {
				c := Client{Proc: p, Node: 0}
				f, _ := fs.Create(c, "x")
				inj.FailDataServerAt(0, p.Now())
				_, err := f.Do(c, Req{Write: true, Mode: By, Buf: data, Deadline: p.Now() + 5})
				var de *DeviceError
				if !errors.As(err, &de) {
					panic("dead-server write did not fail")
				}
				if !math.IsInf(de.Completion, 1) {
					panic("dead-server completion should be +Inf")
				}
				if math.IsInf(p.Now(), 1) {
					panic("caller clock ran to +Inf despite the deadline")
				}
			})
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestStripeFaultInjectorServerCount(t *testing.T) {
	fs, inj, _ := deadlineFixture(t, "pvfs")
	if inj.NumDataServers() != DefaultPVFS().IODs {
		t.Fatalf("pvfs NumDataServers = %d, want %d", inj.NumDataServers(), DefaultPVFS().IODs)
	}
	_ = fs
	fs2, inj2, _ := deadlineFixture(t, "gpfs")
	if inj2.NumDataServers() != DefaultGPFS().Servers {
		t.Fatalf("gpfs NumDataServers = %d, want %d", inj2.NumDataServers(), DefaultGPFS().Servers)
	}
	_ = fs2
}

func TestDegradedServerSlowsStripedWrite(t *testing.T) {
	run := func(factor float64) float64 {
		fs, inj, _ := deadlineFixture(t, "pvfs")
		if factor > 1 {
			inj.DegradeDataServer(0, factor)
		}
		eng := sim.NewEngine()
		eng.Spawn("c", func(p *sim.Proc) {
			c := Client{Proc: p, Node: 0}
			f, _ := fs.Create(c, "x")
			f.WriteAt(c, make([]byte, 2<<20), 0)
		})
		if err := eng.Run(); err != nil {
			panic(err)
		}
		return eng.MaxTime()
	}
	healthy := run(1)
	slow := run(10)
	if slow <= healthy {
		t.Fatalf("10x straggler write %.6fs not slower than healthy %.6fs", slow, healthy)
	}
}
