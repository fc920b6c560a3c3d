package enzo

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/mpiio"
	"repro/internal/pfs"
)

var updateMatrix = flag.Bool("update", false, "rewrite testdata/matrix_tiny.json from the current code")

// matrixRow pins one composition of the I/O path matrix. Virtual times are
// stored as IEEE-754 bit patterns: the refactor-proof claim is "the same
// per-rank operation sequence", and any reordering moves some clock by at
// least one ulp.
type matrixRow struct {
	Name     string        `json:"name"`
	Events   int64         `json:"events"`
	Makespan string        `json:"makespan"`
	Phases   []matrixPhase `json:"phases"`
	// ExposedWrite, HiddenWrite, ExposedRead, HiddenRead.
	Async        [4]string `json:"async"`
	BytesRead    int64     `json:"bytes_read"`
	BytesWritten int64     `json:"bytes_written"`
	Verified     bool      `json:"verified"`
	// ScrubFailures, Redumps, RestartFallbacks.
	Faults [3]int `json:"faults"`
	// ChunkPuts, ChunkHits, Logical, Physical, Deduped bytes, Failovers.
	CAS [6]int64 `json:"cas"`
	Err string   `json:"err,omitempty"`
}

type matrixPhase struct {
	Name string `json:"name"`
	Bits string `json:"bits"`
}

func f64bits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

type matrixCase struct {
	name    string
	fsKind  string
	backend Backend
	cfg     Config
	wrap    func(pfs.FileSystem) pfs.FileSystem
}

// matrixCases enumerates backend × fs × codec × transport × store ×
// integrity on Tiny/np=4, plus three faulted rows.
func matrixCases() []matrixCase {
	var cases []matrixCase
	for _, backend := range []Backend{BackendHDF4, BackendMPIIO, BackendMPIIOCB, BackendHDF5} {
		for _, fsKind := range []string{"pvfs", "local"} {
			for _, codec := range []string{"none", "lzss"} {
				for _, async := range []bool{false, true} {
					for _, cas := range []bool{false, true} {
						for _, scrub := range []bool{false, true} {
							cfg := Tiny()
							cfg.Codec = codec
							cfg.AsyncIO = async
							name := fmt.Sprintf("%s/%s/%s", backend, fsKind, codec)
							if async {
								name += "/async"
							}
							if cas {
								cfg.CAStore, cfg.Replicas = true, 2
								name += "/cas2"
							}
							if scrub {
								cfg.ScrubOnDump, cfg.Dumps, cfg.Generations = true, 2, 2
								name += "/scrub"
							}
							cases = append(cases, matrixCase{name: name, fsKind: fsKind, backend: backend, cfg: cfg})
						}
					}
				}
			}
		}
	}

	corrupt := Tiny()
	corrupt.ScrubOnDump = true
	cases = append(cases, matrixCase{
		name: "fault/corrupt-write+scrub", fsKind: "pvfs", backend: BackendMPIIO, cfg: corrupt,
		wrap: func(fs pfs.FileSystem) pfs.FileSystem {
			return faultfs.Wrap(fs, faultfs.Config{
				Mode: faultfs.CorruptWrite, EveryN: 3, MinBytes: 2048,
				FileSubstr: "dump00.raw", MaxInject: 3,
			})
		},
	})

	dead := Tiny()
	dead.IORetry = testRetryPolicy()
	dead.IORetry.MaxAttempts = 3
	cases = append(cases, matrixCase{
		name: "fault/dead-server+retry", fsKind: "pvfs", backend: BackendMPIIO, cfg: dead,
		wrap: func(fs pfs.FileSystem) pfs.FileSystem {
			fs.(pfs.StripeFaultInjector).FailDataServerAt(3, 0)
			return fs
		},
	})

	sole := Tiny()
	sole.ScrubOnDump, sole.Generations = true, 1
	cases = append(cases, matrixCase{
		name: "fault/sole-generation-corrupt", fsKind: "pvfs", backend: BackendMPIIO, cfg: sole,
		wrap: func(fs pfs.FileSystem) pfs.FileSystem {
			return faultfs.Wrap(fs, faultfs.Config{
				Mode: faultfs.CorruptWrite, EveryN: 3, MinBytes: 2048,
				FileSubstr: "dump00.raw",
			})
		},
	})
	return cases
}

func (tc matrixCase) run() matrixRow {
	res, err := Run(RunSpec{Machine: faultMachCfg(), FS: tc.fsKind, Procs: 4, Config: tc.cfg, Backend: tc.backend,
		Wrap: tc.wrap,
	})
	row := matrixRow{Name: tc.name}
	var rerr *RestartError
	switch _, isIO := mpiio.ExtractIOError(err); {
	case err == nil:
	case isIO:
		row.Err = "*mpiio.IOError"
	case errors.As(err, &rerr):
		row.Err = "*enzo.RestartError"
	default:
		row.Err = fmt.Sprintf("%T", err)
	}
	if res == nil {
		return row
	}
	row.Events = res.Events
	row.Makespan = f64bits(res.Makespan)
	for _, p := range res.Phases {
		row.Phases = append(row.Phases, matrixPhase{p.Name, f64bits(p.Seconds)})
	}
	row.Async = [4]string{f64bits(res.ExposedWrite), f64bits(res.HiddenWrite), f64bits(res.ExposedRead), f64bits(res.HiddenRead)}
	row.BytesRead, row.BytesWritten, row.Verified = res.BytesRead, res.BytesWritten, res.Verified
	row.Faults = [3]int{res.ScrubFailures, res.Redumps, res.RestartFallbacks}
	row.CAS = [6]int64{res.CASChunkPuts, res.CASChunkHits, res.CASLogicalBytes,
		res.CASPhysicalBytes, res.CASDedupedBytes, res.CASFailovers}
	return row
}

// TestMatrixGolden pins the cross-products of the I/O path matrix — the
// compositions the BENCH files (single features at AMR64/128) do not
// cover. Regenerate with: go test ./internal/enzo -run MatrixGolden -update
func TestMatrixGolden(t *testing.T) {
	golden := filepath.Join("testdata", "matrix_tiny.json")
	cases := matrixCases()
	if *updateMatrix {
		rows := make([]matrixRow, len(cases))
		for i, tc := range cases {
			rows[i] = tc.run()
		}
		enc, err := json.MarshalIndent(rows, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(enc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	var want []matrixRow
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Fatalf("golden has %d rows, matrix has %d (regenerate with -update)", len(want), len(cases))
	}
	for i, tc := range cases {
		i, tc := i, tc
		t.Run(tc.name, func(t *testing.T) {
			got, _ := json.Marshal(tc.run())
			exp, _ := json.Marshal(want[i])
			if string(got) != string(exp) {
				t.Errorf("row drifted from %s\n got %s\nwant %s", golden, got, exp)
			}
		})
	}
}
