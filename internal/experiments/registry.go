package experiments

import (
	"encoding/json"
	"io"
)

// Sweep is one registered named experiment, and its row of Registry says
// everything a harness needs to know about it: iobench prints Title, runs
// the sections and prints their tables; benchdiff writes the gated sections'
// rows to the baseline file of the sweep's family (Families) or compares
// them against it, and checks their invariants. Adding a sweep is adding a
// row — the CLIs' usage text, validation and loops all come from this list.
type Sweep struct {
	Name     string
	Title    string // one-line description, printed as the section heading
	Sections []Section
}

// Section is one table of a sweep with its row type erased, built by
// table[T].section so that the harnesses never switch on the row type.
type Section struct {
	// Key is the top-level key that holds the section's rows in the
	// BENCH_<family>.json of the sweep's family; "" when nothing pins them
	// (the figures).
	Key string
	// Run runs the section's sweep.
	Run func(Options) (Table, error)
	// Decode parses the committed rows of a baseline file's Key into the
	// same dynamic type as Table.Rows.
	Decode func(data []byte) ([]any, error)
	// Claim says in words what Check asserts about the rows, fresh or
	// committed; Check returns the violations. Both are zero for a section
	// without an invariant.
	Claim string
	Check func(rows []any) []string
}

// Table is one section's rows as run.
type Table struct {
	// Rows are the comparable row structs a baseline pins, after the
	// section's projection (scale: StripWallClock).
	Rows  []any
	Print func(io.Writer)
	// Chart renders the rows as ASCII bar charts; nil except on figures.
	Chart func(io.Writer)
}

// table is a Section before its row type is erased.
type table[T comparable] struct {
	key   string
	sweep func(Options) ([]T, error)
	print func(io.Writer, []T)
	chart func(io.Writer, []T) // optional
	// pin, when non-nil, projects the rows before they are written to or
	// compared against a baseline; printing always gets them as run.
	pin func([]T) []T
	// invariant, when non-nil, is the family's headline claim, stated in
	// words by claim.
	claim     string
	invariant func([]T) []string
}

func (t table[T]) section() Section {
	erase := func(rows []T) []any {
		if t.pin != nil {
			rows = t.pin(rows)
		}
		out := make([]any, len(rows))
		for i, r := range rows {
			out[i] = r
		}
		return out
	}
	s := Section{
		Key:   t.key,
		Claim: t.claim,
		Run: func(o Options) (Table, error) {
			rows, err := t.sweep(o)
			if err != nil {
				return Table{}, err
			}
			tab := Table{Rows: erase(rows), Print: func(w io.Writer) { t.print(w, rows) }}
			if t.chart != nil {
				tab.Chart = func(w io.Writer) { t.chart(w, rows) }
			}
			return tab, nil
		},
		Decode: func(data []byte) ([]any, error) {
			var rows []T
			err := json.Unmarshal(data, &rows)
			return erase(rows), err
		},
	}
	if t.invariant != nil {
		s.Check = func(rows []any) []string {
			typed := make([]T, len(rows))
			for i, r := range rows {
				typed[i] = r.(T)
			}
			return t.invariant(typed)
		}
	}
	return s
}

// figure is the one section of a paper figure: its cases as PrintRows
// prints them, chartable, pinned by no baseline.
func figure(name string) []Section {
	return []Section{table[Row]{
		sweep: func(o Options) ([]Row, error) { return runFigure(name, o) },
		print: PrintRows, chart: RenderChart,
	}.section()}
}

// Registry returns the named sweeps in canonical run order.
func Registry() []Sweep {
	return []Sweep{
		{"table1", "Table 1: Amount of data read/written by the ENZO application", []Section{
			table[Table1Row]{key: "Table1", print: PrintTable1,
				sweep: func(o Options) ([]Table1Row, error) { return Table1(o), nil }}.section()}},
		{"overlap", "Overlap sweep: write-behind checkpoint I/O vs synchronous dumps (Chiba City, AMR128, np=8)", []Section{
			table[OverlapRow]{key: "Overlap", sweep: OverlapSweep, print: PrintOverlapSweep}.section()}},
		{"codecs", "Codec sweep: transparent compression vs file system (Chiba City, MPI-IO, AMR128, np=8)", []Section{
			table[Row]{key: "Codecs", sweep: CodecSweep, print: PrintCodecSweep}.section()}},
		{"reads", "Read sweep: parallel restart read path vs the HDF4 baseline (Chiba City, AMR128, np=8)", []Section{
			table[ReadRow]{key: "Reads", sweep: ReadSweep, print: PrintReadSweep}.section()}},
		{"faults", "Fault sweep: straggler data servers and silent-corruption recovery (AMR64, np=8)", []Section{
			table[StragglerRow]{key: "Stragglers", sweep: stragglerSweep, print: PrintStragglerSweep}.section(),
			table[RecoveryRow]{key: "Recovery", sweep: recoverySweep, print: PrintRecoverySweep}.section()}},
		{"dedup", "Dedup sweep: content-addressed checkpoint store vs plain dumps (AMR64/AMR128, np=8)", []Section{
			table[DedupRow]{key: "Dedup", sweep: DedupSweep, print: PrintDedupSweep, invariant: CheckDedupInvariant,
				claim: "castore device bytes strictly below plain at every depth >= 2"}.section()}},
		{"scale", "Scale sweep: virtual time and simulator throughput vs rank count (cluster1024, MPI-IO, AMR128/AMR256, np=8-256)", []Section{
			table[ScaleRow]{key: "Scale", sweep: ScaleSweep, print: PrintScaleSweep, pin: StripWallClock}.section()}},
		{"hints", "Hints sweep: autotuned MPI-IO hint vector vs hand-picked defaults (origin2000/sp2/chiba, pvfs/gpfs, mpiio/hdf5, AMR64, np=8)", []Section{
			table[HintsRow]{key: "Hints", sweep: HintsSweep, print: PrintHintsSweep, invariant: CheckHintsInvariant,
				claim: "tuned I/O time never above the defaults, strictly below on pvfs"}.section()}},
		{"tenants", "Multi-tenant sweep: concurrent jobs on one machine, per-job slowdown vs run-alone, FIFO vs fair-queueing servers (chiba/pvfs, sp2/gpfs, burst buffer)", []Section{
			table[TenantRow]{key: "Tenants", sweep: MultiTenantSweep, print: PrintTenantSweep, invariant: CheckTenantsInvariant,
				claim: "fair queueing never worsens, and on pvfs strictly improves, the worst contended slowdown"}.section()}},
		{"fig6", "Figure 6: ENZO I/O on SGI Origin2000 with XFS (HDF4 vs MPI-IO)", figure("fig6")},
		{"fig7", "Figure 7: ENZO I/O on IBM SP-2 with GPFS (HDF4 vs MPI-IO)", figure("fig7")},
		{"fig8", "Figure 8: ENZO I/O on Linux cluster with PVFS over fast Ethernet", figure("fig8")},
		{"fig9", "Figure 9: ENZO I/O on Linux cluster with node-local disks (PVFS interface)", figure("fig9")},
		{"fig10", "Figure 10: HDF5 vs MPI-IO write performance on SGI Origin2000", figure("fig10")},
	}
}

// Run runs every section of the sweep, in order.
func (s Sweep) Run(o Options) ([]Table, error) {
	tables := make([]Table, len(s.Sections))
	for i, sec := range s.Sections {
		var err error
		if tables[i], err = sec.Run(o); err != nil {
			return nil, err
		}
	}
	return tables, nil
}

// Family is one committed baseline file, BENCH_<Name>.json: Sections are its
// top-level keys, in order, and it re-baselines on its own (benchdiff
// -update -only <Name>).
type Family struct {
	Name     string
	Sections []Section
}

// Families returns the baseline families in the order benchdiff runs them,
// each made of the sections of the sweeps named. Both orders are pinned by
// the committed files and are not Registry's: BENCH_baseline.json holds
// Table1, Codecs, Overlap while -exp all runs table1, overlap, codecs; and
// scale goes last because it is the family most likely to die of memory,
// which then costs only itself.
func Families() []Family {
	sections := make(map[string][]Section)
	for _, s := range Registry() {
		sections[s.Name] = s.Sections
	}
	family := func(name string, sweeps ...string) Family {
		f := Family{Name: name}
		for _, s := range sweeps {
			f.Sections = append(f.Sections, sections[s]...)
		}
		return f
	}
	return []Family{
		family("baseline", "table1", "codecs", "overlap"),
		family("faults", "faults"),
		family("reads", "reads"),
		family("dedup", "dedup"),
		family("hints", "hints"),
		family("tenants", "tenants"),
		family("scale", "scale"),
	}
}

// SweepNames returns the registered sweep names in canonical order.
func SweepNames() []string {
	reg := Registry()
	names := make([]string, len(reg))
	for i, s := range reg {
		names[i] = s.Name
	}
	return names
}

// SweepTitle returns the registered one-line description ("" if unknown).
func SweepTitle(name string) string {
	for _, s := range Registry() {
		if s.Name == name {
			return s.Title
		}
	}
	return ""
}
