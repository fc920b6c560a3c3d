package hdf4

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/sim"
)

func newFS() (*pfs.XFS, *machine.Machine) {
	mach := machine.New(machine.ByName("origin2000"))
	return pfs.NewXFS(mach, pfs.DefaultXFS()), mach
}

func runSolo(t *testing.T, body func(c pfs.Client, fs pfs.FileSystem)) float64 {
	t.Helper()
	fs, _ := newFS()
	eng := sim.NewEngine()
	eng.Spawn("p0", func(p *sim.Proc) {
		body(pfs.Client{Proc: p, Node: 0}, fs)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return eng.MaxTime()
}

func TestWriteReadSDSRoundTrip(t *testing.T) {
	runSolo(t, func(c pfs.Client, fs pfs.FileSystem) {
		sd, err := Create(c, fs, "out.hdf")
		if err != nil {
			panic(err)
		}
		density := make([]byte, 4*4*4*4)
		rand.New(rand.NewSource(1)).Read(density)
		if err := sd.WriteSDS("density", []int{4, 4, 4}, 4, density); err != nil {
			panic(err)
		}
		// WriteSDS refuses a zero dimension, so append the descriptor by hand.
		empty := SDSInfo{Name: "empty", Dims: []int{0}, ElemSize: 4, DataOff: sd.eof + ddSize}
		sd.f.WriteAt(c, encodeDD(empty), sd.eof)
		sd.eof = empty.DataOff
		sd.index = append(sd.index, empty)
		sd.writeHeader()
		sd.Close()

		sd2, err := Open(c, fs, "out.hdf")
		if err != nil {
			panic(err)
		}
		info, data, err := sd2.ReadSDS("density")
		if err != nil {
			panic(err)
		}
		if info.ElemSize != 4 || len(info.Dims) != 3 || info.Dims[0] != 4 {
			panic("descriptor corrupted")
		}
		if !bytes.Equal(data, density) {
			panic("data corrupted")
		}
		// The data is lent: the buffer the writer handed over.
		if &data[0] != &density[0] {
			panic("ReadSDS copied instead of lending the stored bytes")
		}
		// A zero-length SDS (only a decoded descriptor can name one) moves
		// no bytes, so it must not hand back the last read's pieces.
		if info, data, err := sd2.ReadSDS("empty"); err != nil || info.DataLen != 0 || len(data) != 0 {
			panic(fmt.Sprintf("zero-length SDS read %d bytes (err %v)", len(data), err))
		}
		sd2.Close()
	})
}

func TestMultipleSDSPreserveOrderAndContents(t *testing.T) {
	names := []string{"density", "total_energy", "velocity_x", "velocity_y", "velocity_z"}
	payloads := make(map[string][]byte)
	runSolo(t, func(c pfs.Client, fs pfs.FileSystem) {
		sd, err := Create(c, fs, "multi.hdf")
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(2))
		for i, n := range names {
			data := make([]byte, (i+1)*1000)
			rng.Read(data)
			payloads[n] = data
			if err := sd.WriteSDS(n, []int{(i + 1) * 250}, 4, data); err != nil {
				panic(err)
			}
		}
		sd.Close()
		sd2, err := Open(c, fs, "multi.hdf")
		if err != nil {
			panic(err)
		}
		list := sd2.List()
		if len(list) != len(names) {
			panic("index size wrong")
		}
		for i, info := range list {
			if info.Name != names[i] {
				panic("order not preserved: " + info.Name)
			}
			_, data, err := sd2.ReadSDS(info.Name)
			if err != nil {
				panic(err)
			}
			if !bytes.Equal(data, payloads[info.Name]) {
				panic("payload mismatch for " + info.Name)
			}
		}
	})
}

func TestReadMissingSDSFails(t *testing.T) {
	runSolo(t, func(c pfs.Client, fs pfs.FileSystem) {
		sd, _ := Create(c, fs, "x.hdf")
		if _, _, err := sd.ReadSDS("nope"); err == nil {
			panic("expected error")
		}
	})
}

func TestWriteSDSValidation(t *testing.T) {
	runSolo(t, func(c pfs.Client, fs pfs.FileSystem) {
		sd, _ := Create(c, fs, "v.hdf")
		if err := sd.WriteSDS("badlen", []int{10}, 4, make([]byte, 39)); err == nil {
			panic("size mismatch accepted")
		}
		if err := sd.WriteSDS("badrank", nil, 4, nil); err == nil {
			panic("rank 0 accepted")
		}
		if err := sd.WriteSDS("baddim", []int{0}, 4, nil); err == nil {
			panic("zero dim accepted")
		}
		long := make([]byte, nameLen+1)
		for i := range long {
			long[i] = 'a'
		}
		if err := sd.WriteSDS(string(long), []int{1}, 1, []byte{1}); err == nil {
			panic("overlong name accepted")
		}
	})
}

func TestOpenNonHDFFileFails(t *testing.T) {
	runSolo(t, func(c pfs.Client, fs pfs.FileSystem) {
		f, _ := fs.Create(c, "junk")
		f.WriteAt(c, []byte("not an hdf file at all..."), 0)
		if _, err := Open(c, fs, "junk"); err == nil {
			panic("expected magic check failure")
		}
	})
}

func TestSequentialOwnershipEnforced(t *testing.T) {
	fs, _ := newFS()
	eng := sim.NewEngine()
	var sd *SDFile
	eng.Spawn("owner", func(p *sim.Proc) {
		var err error
		sd, err = Create(pfs.Client{Proc: p, Node: 0}, fs, "owned.hdf")
		if err != nil {
			panic(err)
		}
	})
	eng.Spawn("intruder", func(p *sim.Proc) {
		p.Advance(1)
		// Steal the handle with our own client: must panic.
		stolen := *sd
		stolen.client = pfs.Client{Proc: p, Node: 1}
		stolen.WriteSDS("x", []int{1}, 1, []byte{1})
	})
	err := eng.Run()
	if err == nil {
		t.Fatal("expected ownership panic")
	}
}

func TestMetadataInterleavingCausesSeeks(t *testing.T) {
	// Writing k SDSs costs more than one SDS of the same total size:
	// the descriptor+header small writes force seeks.
	many := runSolo(t, func(c pfs.Client, fs pfs.FileSystem) {
		sd, _ := Create(c, fs, "many.hdf")
		for i := 0; i < 16; i++ {
			sd.WriteSDS(string(rune('a'+i)), []int{1 << 16}, 1, make([]byte, 1<<16))
		}
	})
	one := runSolo(t, func(c pfs.Client, fs pfs.FileSystem) {
		sd, _ := Create(c, fs, "one.hdf")
		sd.WriteSDS("a", []int{16 << 16}, 1, make([]byte, 16<<16))
	})
	if many <= one {
		t.Fatalf("16 SDS writes %.4fs vs one big write %.4fs: metadata overhead missing", many, one)
	}
}

// Property: any batch of valid named arrays round-trips through the
// container.
func TestContainerRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(8) + 1
		type entry struct {
			name string
			dims []int
			elem int
			data []byte
		}
		entries := make([]entry, n)
		for i := range entries {
			nd := rng.Intn(3) + 1
			dims := make([]int, nd)
			total := 1
			for d := range dims {
				dims[d] = rng.Intn(8) + 1
				total *= dims[d]
			}
			elem := []int{1, 2, 4, 8}[rng.Intn(4)]
			data := make([]byte, total*elem)
			rng.Read(data)
			entries[i] = entry{name: string(rune('a' + i)), dims: dims, elem: elem, data: data}
		}
		ok := true
		fs, _ := newFS()
		eng := sim.NewEngine()
		eng.Spawn("p", func(p *sim.Proc) {
			c := pfs.Client{Proc: p, Node: 0}
			sd, err := Create(c, fs, "prop.hdf")
			if err != nil {
				panic(err)
			}
			for _, e := range entries {
				if err := sd.WriteSDS(e.name, e.dims, e.elem, e.data); err != nil {
					panic(err)
				}
			}
			sd.Close()
			sd2, err := Open(c, fs, "prop.hdf")
			if err != nil {
				panic(err)
			}
			for _, e := range entries {
				info, data, err := sd2.ReadSDS(e.name)
				if err != nil || !bytes.Equal(data, e.data) || info.ElemSize != e.elem {
					ok = false
				}
			}
		})
		if err := eng.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
