package enzo

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/golden"
)

// TestValidate has one row per refusal of RunSpec.Validate, each of which
// Run must return too, before it builds anything, and one accepted row per
// equivalence its doc comment states.
func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		fs      string
		backend Backend
		set     func(*Config)
		axis    string // "" = accepted
	}{
		{"hdf4 with a codec", "pvfs", BackendHDF4, func(c *Config) { c.Codec = "lzss" }, "codec"},
		{"hdf4 with castore", "pvfs", BackendHDF4, func(c *Config) { c.CAStore = true }, "castore"},
		{"hdf4 with async", "pvfs", BackendHDF4, func(c *Config) { c.AsyncIO = true }, "async"},
		{"hdf4 with retry", "pvfs", BackendHDF4, func(c *Config) { c.IORetry = testRetryPolicy() }, "io_retry"},
		{"hdf4 with cb_nodes", "pvfs", BackendHDF4, func(c *Config) { c.CBNodes = 4 }, "hints"},
		{"hdf4 with cb_buffer_size", "pvfs", BackendHDF4, func(c *Config) { c.CBBufferSize = 1 << 20 }, "hints"},
		{"hdf4 with ind_rd_buffer_size", "pvfs", BackendHDF4, func(c *Config) { c.SieveBufferSize = 1 << 20 }, "hints"},
		{"hdf4 with data sieving off", "pvfs", BackendHDF4, func(c *Config) { c.DataSieving = -1 }, "hints"},
		{"replicas without castore", "pvfs", BackendMPIIO, func(c *Config) { c.Replicas = 2 }, "replicas"},
		{"max redumps without scrub", "pvfs", BackendMPIIO, func(c *Config) { c.MaxRedumps = 1 }, "max_redumps"},
		{"generations without scrub or castore", "pvfs", BackendHDF5, func(c *Config) { c.Generations = 2 }, "generations"},
		{"mpiio-cb on local", "local", BackendMPIIOCB, func(*Config) {}, ""},
		{"mpiio-cb with castore", "pvfs", BackendMPIIOCB, func(c *Config) { c.CAStore, c.Replicas = true, 2 }, ""},
		{"async under retry", "pvfs", BackendMPIIO, func(c *Config) { c.AsyncIO, c.IORetry = true, testRetryPolicy() }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := RunSpec{Machine: faultMachCfg(), FS: tc.fs, Procs: 4, Config: Tiny(), Backend: tc.backend}
			tc.set(&spec.Config)
			err := spec.Validate()
			if tc.axis == "" {
				if err != nil {
					t.Fatalf("refused: %v", err)
				}
				return
			}
			var se *SpecError
			if !errors.As(err, &se) || se.Axis != tc.axis {
				t.Fatalf("Validate() = %v, want a *SpecError on axis %q", err, tc.axis)
			}
			if res, err := Run(spec); res != nil || !errors.As(err, &se) || se.Axis != tc.axis {
				t.Fatalf("Run = %v, %v; want the refusal", res, err)
			}
		})
	}
}

// sameRun is the equivalence Validate documents for the matrix's axes:
// mpiio-cb runs as mpiio on node-local disks and with castore.
func sameRun(a, b matrixCase) bool {
	cb := map[Backend]bool{BackendMPIIO: true, BackendMPIIOCB: true}
	return a.backend != b.backend && cb[a.backend] && cb[b.backend] && (a.fsKind == "local" || a.cfg.CAStore)
}

// TestNoSilentAxis reads matrix_tiny.json: every two accepted rows that
// differ in one axis — backend, fs, codec, AsyncIO, castore or scrub — must
// differ in result, unless the pair is one Validate documents as the same
// run, which must then be equal. A row is refused exactly when Validate
// refuses its case.
func TestNoSilentAxis(t *testing.T) {
	var rows []matrixRow
	if err := json.Unmarshal(golden.Read(t, matrixGolden), &rows); err != nil {
		t.Fatal(err)
	}
	cases := matrixCases()
	if len(rows) != len(cases) {
		t.Fatalf("%d rows for %d cases", len(rows), len(cases))
	}
	axes := func(c matrixCase) [6]any {
		return [6]any{c.backend, c.fsKind, c.cfg.Codec, c.cfg.AsyncIO, c.cfg.CAStore, c.cfg.ScrubOnDump}
	}
	var accepted []int
	for i, tc := range cases {
		if rows[i].Name != tc.name {
			t.Fatalf("row %d is %q, case %q", i, rows[i].Name, tc.name)
		}
		refused := RunSpec{FS: tc.fsKind, Procs: 4, Config: tc.cfg, Backend: tc.backend}.Validate() != nil
		if refused != (rows[i].Err == "*enzo.SpecError") {
			t.Errorf("%s: refused %v, but the row pins %q", tc.name, refused, rows[i].Err)
		}
		if !refused && tc.wrap == nil {
			accepted = append(accepted, i)
		}
	}
	pairs, same := 0, 0
	for x, i := range accepted {
		for _, j := range accepted[x+1:] {
			a, b := cases[i], cases[j]
			ax, bx := axes(a), axes(b)
			diff := 0
			for k := range ax {
				if ax[k] != bx[k] {
					diff++
				}
			}
			if diff != 1 {
				continue
			}
			pairs++
			ra, rb := rows[i], rows[j]
			ra.Name, rb.Name = "", ""
			switch equal := reflect.DeepEqual(ra, rb); {
			case sameRun(a, b):
				same++
				if !equal {
					t.Errorf("%s and %s differ, but Validate documents them as one run", a.name, b.name)
				}
			case equal:
				t.Errorf("%s and %s are the same run: the axis between them changes nothing", a.name, b.name)
			}
		}
	}
	t.Logf("%d single-axis pairs, %d of them documented as one run", pairs, same)
	if pairs == 0 || same == 0 {
		t.Fatal("no pair checked")
	}
}
