package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/enzo"
	"repro/internal/machine"
)

func TestTable1MonotoneInProblemSize(t *testing.T) {
	rows := Table1(Options{})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Problem != "AMR64" || rows[2].Problem != "AMR256" {
		t.Fatalf("problems = %v, %v", rows[0].Problem, rows[2].Problem)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].ReadMB <= rows[i-1].ReadMB*4 {
			t.Fatalf("%s read %.1f MB not ~8x %s read %.1f MB",
				rows[i].Problem, rows[i].ReadMB, rows[i-1].Problem, rows[i-1].ReadMB)
		}
		if rows[i].Particles <= rows[i-1].Particles {
			t.Fatal("particle counts not increasing")
		}
	}
	// Volumes are in the tens-to-thousands of MB, like the paper's.
	if rows[0].ReadMB < 20 || rows[0].ReadMB > 200 {
		t.Fatalf("AMR64 read volume %.1f MB implausible", rows[0].ReadMB)
	}
}

func TestQuickSuiteRunsAndVerifies(t *testing.T) {
	o := Options{Quick: true}
	for _, name := range []string{"fig6", "fig7", "fig8", "fig9", "fig10"} {
		rows, err := runFigure(name, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows) == 0 {
			t.Fatalf("%s returned no rows", name)
		}
		for _, r := range rows {
			if !r.Verified {
				t.Fatalf("%s: %s/%s np=%d not verified", name, r.Problem, r.Backend, r.Procs)
			}
			if r.WriteSec <= 0 || r.ReadSec <= 0 || r.RestartSec <= 0 {
				t.Fatalf("%s: missing timings in %+v", name, r)
			}
		}
	}
}

// The shape assertions below run the calibrated AMR64 problem on each
// platform and check the paper's qualitative findings.

func TestShapeFigure6MPIIOWinsOnXFS(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale shape check")
	}
	for _, np := range []int{4, 8, 16} {
		h, err := enzo.RunOnce(machine.Origin2000(), "xfs", np, enzo.AMR64(), enzo.BackendHDF4)
		if err != nil {
			t.Fatal(err)
		}
		m, err := enzo.RunOnce(machine.Origin2000(), "xfs", np, enzo.AMR64(), enzo.BackendMPIIO)
		if err != nil {
			t.Fatal(err)
		}
		if m.WriteTime() >= h.WriteTime() {
			t.Errorf("np=%d: MPI-IO write %.3fs not faster than HDF4 %.3fs on XFS",
				np, m.WriteTime(), h.WriteTime())
		}
		if m.RestartTime() >= h.RestartTime() {
			t.Errorf("np=%d: MPI-IO restart %.3fs not faster than HDF4 %.3fs on XFS",
				np, m.RestartTime(), h.RestartTime())
		}
	}
	// MPI-IO write time improves as processors are added; HDF4 does not.
	m4, _ := enzo.RunOnce(machine.Origin2000(), "xfs", 4, enzo.AMR64(), enzo.BackendMPIIO)
	m16, _ := enzo.RunOnce(machine.Origin2000(), "xfs", 16, enzo.AMR64(), enzo.BackendMPIIO)
	if m16.WriteTime() >= m4.WriteTime() {
		t.Errorf("MPI-IO write did not scale: %.3fs @4p vs %.3fs @16p", m4.WriteTime(), m16.WriteTime())
	}
}

func TestShapeFigure7MPIIOLosesOnGPFS(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale shape check")
	}
	h, err := enzo.RunOnce(machine.SP2(), "gpfs", 32, enzo.AMR64(), enzo.BackendHDF4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := enzo.RunOnce(machine.SP2(), "gpfs", 32, enzo.AMR64(), enzo.BackendMPIIO)
	if err != nil {
		t.Fatal(err)
	}
	if m.IOTime() <= h.IOTime() {
		t.Errorf("GPFS: MPI-IO total I/O %.3fs should exceed HDF4 %.3fs (striping mismatch)",
			m.IOTime(), h.IOTime())
	}
	if m.WriteTime() <= h.WriteTime() {
		t.Errorf("GPFS: MPI-IO write %.3fs should exceed HDF4 %.3fs", m.WriteTime(), h.WriteTime())
	}
	// More processors make it worse for MPI-IO (more lock conflicts).
	m64, err := enzo.RunOnce(machine.SP2(), "gpfs", 64, enzo.AMR64(), enzo.BackendMPIIO)
	if err != nil {
		t.Fatal(err)
	}
	if m64.WriteTime() <= m.WriteTime() {
		t.Errorf("GPFS: MPI-IO write at 64p %.3fs should exceed 32p %.3fs", m64.WriteTime(), m.WriteTime())
	}
}

func TestShapeFigure8EthernetDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale shape check")
	}
	h, err := enzo.RunOnce(machine.ChibaCity(), "pvfs", 8, enzo.AMR64(), enzo.BackendHDF4)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := enzo.RunOnce(machine.ChibaCity(), "pvfs", 8, enzo.AMR64(), enzo.BackendMPIIOCB)
	if err != nil {
		t.Fatal(err)
	}
	// The collective write path degrades badly over fast Ethernet.
	if cb.WriteTime() <= 2*h.WriteTime() {
		t.Errorf("PVFS: collective MPI-IO write %.3fs should be >> HDF4 %.3fs", cb.WriteTime(), h.WriteTime())
	}
	// But MPI-IO reads are a little better (data sieving + no root funnel).
	m, err := enzo.RunOnce(machine.ChibaCity(), "pvfs", 8, enzo.AMR64(), enzo.BackendMPIIO)
	if err != nil {
		t.Fatal(err)
	}
	if m.RestartTime() >= h.RestartTime() {
		t.Errorf("PVFS: MPI-IO restart read %.3fs should beat HDF4 %.3fs", m.RestartTime(), h.RestartTime())
	}
}

func TestShapeFigure9LocalDisks(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale shape check")
	}
	var prev float64
	for i, np := range []int{2, 4, 8} {
		h, err := enzo.RunOnce(machine.ChibaCity(), "local", np, enzo.AMR64(), enzo.BackendHDF4)
		if err != nil {
			t.Fatal(err)
		}
		m, err := enzo.RunOnce(machine.ChibaCity(), "local", np, enzo.AMR64(), enzo.BackendMPIIO)
		if err != nil {
			t.Fatal(err)
		}
		if m.IOTime() >= h.IOTime() {
			t.Errorf("local np=%d: MPI-IO %.3fs should beat HDF4 %.3fs", np, m.IOTime(), h.IOTime())
		}
		if i > 0 && m.IOTime() >= prev {
			t.Errorf("local: MPI-IO did not scale, %.3fs @np=%d vs %.3fs before", m.IOTime(), np, prev)
		}
		prev = m.IOTime()
	}
}

func TestShapeFigure10HDF5MuchWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale shape check")
	}
	m, err := enzo.RunOnce(machine.Origin2000(), "xfs", 16, enzo.AMR64(), enzo.BackendMPIIO)
	if err != nil {
		t.Fatal(err)
	}
	h5, err := enzo.RunOnce(machine.Origin2000(), "xfs", 16, enzo.AMR64(), enzo.BackendHDF5)
	if err != nil {
		t.Fatal(err)
	}
	if h5.WriteTime() <= 2*m.WriteTime() {
		t.Errorf("HDF5 write %.3fs should be much worse than MPI-IO %.3fs", h5.WriteTime(), m.WriteTime())
	}
}

func TestPrintersProduceTables(t *testing.T) {
	var buf bytes.Buffer
	PrintTable1(&buf, Table1(Options{Quick: true}))
	out := buf.String()
	for _, want := range []string{"AMR64", "AMR128", "AMR256", "Read (MB)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	rows := []Row{{Figure: "figX", Problem: "AMR64", Machine: "m", FS: "fs",
		Backend: "hdf4", Procs: 4, ReadSec: 1, WriteSec: 2, RestartSec: 3, Verified: true}}
	PrintRows(&buf, rows)
	if !strings.Contains(buf.String(), "figX") || !strings.Contains(buf.String(), "hdf4") {
		t.Fatalf("rows output malformed:\n%s", buf.String())
	}
	if _, ok := Find(rows, "hdf4", "AMR64", 4); !ok {
		t.Fatal("Find failed")
	}
	if _, ok := Find(rows, "mpiio", "AMR64", 4); ok {
		t.Fatal("Find matched wrong row")
	}
}

func TestRenderChart(t *testing.T) {
	rows := []Row{
		{Problem: "AMR64", Procs: 8, Backend: "hdf4", ReadSec: 2, WriteSec: 1, RestartSec: 0.5},
		{Problem: "AMR64", Procs: 8, Backend: "mpiio", ReadSec: 1, WriteSec: 0.5, RestartSec: 0.25},
	}
	var buf bytes.Buffer
	RenderChart(&buf, rows)
	out := buf.String()
	if !strings.Contains(out, "AMR64, 8 procs") || !strings.Contains(out, "#") {
		t.Fatalf("chart output:\n%s", out)
	}
	// The hdf4 read bar must be longer than the mpiio read bar.
	lines := strings.Split(out, "\n")
	var hdf4Bar, mpiioBar int
	for _, l := range lines {
		if strings.Contains(l, "hdf4") && strings.Contains(l, "init-read") {
			hdf4Bar = strings.Count(l, "#")
		}
		if strings.Contains(l, "mpiio") && strings.Contains(l, "init-read") {
			mpiioBar = strings.Count(l, "#")
		}
	}
	if hdf4Bar <= mpiioBar {
		t.Fatalf("bar lengths wrong: hdf4=%d mpiio=%d", hdf4Bar, mpiioBar)
	}
	RenderChart(&buf, nil) // no rows: no panic
}

func TestRunTracedWritesArtifacts(t *testing.T) {
	c := Case{"figX", enzo.RunSpec{
		Machine: machine.ChibaCity(),
		FS:      "pvfs",
		Procs:   2,
		Config:  enzo.Tiny(),
		Backend: enzo.BackendMPIIO,
	}}
	dir := t.TempDir()
	row, err := c.Run(Options{TraceDir: dir})
	if err != nil {
		t.Fatalf("traced Run: %v", err)
	}
	if !row.Verified || row.Makespan <= 0 {
		t.Fatalf("row = %+v", row)
	}
	// The traced row matches the untraced one exactly (zero perturbation).
	plain, err := c.Run(Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	plain.Makespan = row.Makespan // Run() fills it too; compare the rest strictly
	if row != plain {
		t.Errorf("traced row differs from plain row:\n  %+v\n  %+v", row, plain)
	}

	for _, name := range []string{
		"figX_Tiny_pvfs_mpiio_np2.trace.json",
		"figX_Tiny_pvfs_mpiio_np2.report.txt",
	} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("artifact %s: %v", name, err)
		}
		if len(data) == 0 {
			t.Errorf("artifact %s is empty", name)
		}
	}
}

func TestOverlapSweepQuick(t *testing.T) {
	rows, err := OverlapSweep(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // {pvfs, local} x {mpiio, hdf5}
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Verified {
			t.Fatalf("%s/%s: async run not verified", r.FS, r.Backend)
		}
		if r.HiddenSec <= 0 {
			t.Fatalf("%s/%s: nothing hidden: %+v", r.FS, r.Backend, r)
		}
		if r.ExposedSec >= r.SyncWriteSec {
			t.Fatalf("%s/%s: exposed %.3fs not below sync dump %.3fs",
				r.FS, r.Backend, r.ExposedSec, r.SyncWriteSec)
		}
	}
	var buf bytes.Buffer
	PrintOverlapSweep(&buf, rows)
	out := buf.String()
	if !strings.Contains(out, "hidden%") || !strings.Contains(out, "pvfs") {
		t.Fatalf("table missing columns:\n%s", out)
	}
}

func TestShapeOverlapHidesMostDumpTime(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale shape check")
	}
	// The acceptance bar: with compute >= dump time, the write-behind
	// pipeline hides at least 70% of the dump wall-time on shared PVFS at
	// AMR128 / 8 processors.
	rows, err := OverlapSweep(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.FS == "pvfs" && r.HiddenFrac < 0.70 {
			t.Errorf("%s/%s: hidden fraction %.2f below 0.70 (exposed %.3fs, hidden %.3fs, sync %.3fs)",
				r.FS, r.Backend, r.HiddenFrac, r.ExposedSec, r.HiddenSec, r.SyncWriteSec)
		}
	}
}
