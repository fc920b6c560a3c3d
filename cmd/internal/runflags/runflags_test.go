package runflags

import (
	"flag"
	"io"
	"testing"

	"repro/internal/enzo"
)

func parse(t *testing.T, d Defaults, args ...string) (*Flags, error) {
	t.Helper()
	fl := flag.NewFlagSet("test", flag.ContinueOnError)
	fl.SetOutput(io.Discard)
	f := Register(fl, d)
	if err := fl.Parse(args); err != nil {
		return f, err
	}
	_, err := f.Resolve()
	return f, err
}

// TestBadFlagsRejected is the one table of usage errors for every command
// built on this package; the commands' own tests only prove that such an
// error reaches the user as exit 2 plus usage.
func TestBadFlagsRejected(t *testing.T) {
	all := Defaults{Machine: "chiba", FS: "pvfs", Problem: "AMR64", Quick: true}
	cases := []struct {
		name string
		d    Defaults
		args []string
	}{
		{"unknown flag", all, []string{"-bogus"}},
		{"bad machine", all, []string{"-machine", "bluegene"}},
		{"bad fs", all, []string{"-fs", "lustre"}},
		{"zero ranks", all, []string{"-np", "0"}},
		{"bad problem", all, []string{"-problem", "AMR1024"}},
		{"bad backend", all, []string{"-backend", "netcdf"}},
		{"bad codec", all, []string{"-codec", "zip"}},
		{"zero replicas", all, []string{"-castore", "-replicas", "0"}},
		{"replicas without castore", all, []string{"-replicas", "2"}},
		{"castore on hdf4", all, []string{"-castore", "-backend", "hdf4"}},
		{"codec on hdf4", all, []string{"-codec", "lzss", "-backend", "hdf4"}},
		{"async on hdf4", all, []string{"-async", "-backend", "hdf4"}},
		{"straggler below one", all, []string{"-straggler", "0.5"}},
		{"straggler on plain fs", all, []string{"-fs", "xfs", "-straggler", "10"}},
		{"negative corrupt", all, []string{"-corrupt", "-3"}},
		{"quick not declared", Defaults{Machine: "chiba", FS: "pvfs", Problem: "AMR64"}, []string{"-quick"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parse(t, tc.d, tc.args...); err == nil {
				t.Fatalf("%v accepted", tc.args)
			}
		})
	}
}

func TestResolveBuildsTheSpec(t *testing.T) {
	fl := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fl, Defaults{Machine: "origin2000", FS: "xfs", Problem: "AMR64", Quick: true})
	if err := fl.Parse(nil); err != nil {
		t.Fatal(err)
	}
	spec, err := f.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Machine.Name == "" || spec.FS != "xfs" || spec.Procs != 8 || spec.Backend != enzo.BackendMPIIO ||
		spec.Config.Problem != "AMR64" || spec.Config.Replicas != 1 || spec.Wrap != nil || spec.Tracer != nil {
		t.Fatalf("defaults resolved to %+v", spec)
	}

	fl = flag.NewFlagSet("test", flag.ContinueOnError)
	f = Register(fl, Defaults{Machine: "chiba", FS: "pvfs", Problem: "AMR128", Quick: true})
	err = fl.Parse([]string{"-quick", "-membudget", "-1", "-codec", "lzss", "-async", "-scrub",
		"-castore", "-replicas", "2", "-backend", "hdf5", "-np", "4", "-straggler", "3", "-corrupt", "5"})
	if err != nil {
		t.Fatal(err)
	}
	if spec, err = f.Resolve(); err != nil {
		t.Fatal(err)
	}
	c := spec.Config
	if c.Dims != [3]int{32, 32, 32} || c.NParticles != 32*32*32/2 || c.MemBudget != -1 || c.Codec != "lzss" ||
		!c.AsyncIO || !c.ScrubOnDump || !c.CAStore || c.Replicas != 2 ||
		spec.Backend != enzo.BackendHDF5 || spec.Procs != 4 || spec.Wrap == nil {
		t.Fatalf("flags resolved to %+v", spec)
	}
}
