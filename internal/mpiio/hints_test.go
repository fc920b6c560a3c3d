package mpiio

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// TestAutomaticFallbackIndependent checks that non-interleaved collective
// writes take the independent path (no aggregator traffic): with the
// automatic heuristic, ranks send far fewer point-to-point bytes than with
// CBForce, and contents are identical either way.
func TestAutomaticFallbackIndependent(t *testing.T) {
	const per = 1 << 18
	nprocs := 4
	runMode := func(force bool) (sent int64, content []byte) {
		eng := sim.NewEngine()
		mach := machine.New(testMachineCfg())
		fs := pfs.NewXFS(mach, pfs.DefaultXFS())
		sentByRank := make([]int64, nprocs)
		mpi.NewWorld(eng, mach, nprocs, func(r *mpi.Rank) {
			h := DefaultHints()
			h.CBForce = force
			f, err := Open(r, fs, "f", ModeCreate, h)
			if err != nil {
				panic(err)
			}
			base := r.BytesSent()
			// Shuffled ownership: rank r writes region (r+1) mod n, so
			// forced collective buffering must ship the data to another
			// rank's aggregator domain.
			region := (r.Rank() + 1) % r.Size()
			off := int64(region) * per
			f.WriteAtAll([]mpi.Run{{Off: off, Len: per}}, pattern(region, per))
			sentByRank[r.Rank()] = r.BytesSent() - base
			f.Close()
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		for _, s := range sentByRank {
			sent += s
		}
		return sent, readWholeFile(t, fs, "f", int64(nprocs)*per)
	}
	autoSent, autoContent := runMode(false)
	forceSent, forceContent := runMode(true)
	if !bytes.Equal(autoContent, forceContent) {
		t.Fatal("automatic and forced collective buffering produced different files")
	}
	for rank := 0; rank < nprocs; rank++ {
		if !bytes.Equal(autoContent[rank*per:(rank+1)*per], pattern(rank, per)) {
			t.Fatalf("rank %d region wrong", rank)
		}
	}
	// Forced mode ships the payloads to aggregators; automatic does not.
	if forceSent < autoSent+int64(nprocs-1)*per/2 {
		t.Fatalf("forced cb sent %d bytes, automatic %d: expected forced >> automatic", forceSent, autoSent)
	}
}

func TestMinFDSizeLimitsAggregators(t *testing.T) {
	// A small interleaved write must use a single aggregator: exactly one
	// rank performs file-system writes.
	nprocs := 8
	eng := sim.NewEngine()
	mach := machine.New(testMachineCfg())
	fs := pfs.NewXFS(mach, pfs.DefaultXFS())
	const piece = 512 // 8 ranks x 512B = 4KB total, far below MinFDSize
	mpi.NewWorld(eng, mach, nprocs, func(r *mpi.Rank) {
		f, err := Open(r, fs, "small", ModeCreate, DefaultHints())
		if err != nil {
			panic(err)
		}
		// Interleave pieces so the collective path engages.
		var runs []mpi.Run
		var data []byte
		for i := r.Rank(); i < 64; i += nprocs {
			runs = append(runs, mpi.Run{Off: int64(i * piece), Len: piece})
			data = append(data, pattern(i, piece)...)
		}
		f.WriteAtAll(runs, data)
		f.Close()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	// One aggregator, coalesced into cb-buffer chunks: very few writes.
	if st.WriteReqs > 4 {
		t.Fatalf("small collective write used %d requests; MinFDSize should bound aggregators", st.WriteReqs)
	}
	got := readWholeFile(t, fs, "small", 64*piece)
	for i := 0; i < 64; i++ {
		if !bytes.Equal(got[i*piece:(i+1)*piece], pattern(i, piece)) {
			t.Fatalf("piece %d wrong", i)
		}
	}
}

func TestAggregatorRotationSpreadsLoad(t *testing.T) {
	// Successive small collective writes at different file positions must
	// not always use rank 0 as the aggregator: total bytes sent by rank 0
	// should not dominate.
	nprocs := 4
	eng := sim.NewEngine()
	mach := machine.New(testMachineCfg())
	fs := pfs.NewXFS(mach, pfs.DefaultXFS())
	aggWrites := make([]int64, nprocs)
	mpi.NewWorld(eng, mach, nprocs, func(r *mpi.Rank) {
		f, err := Open(r, fs, "rot", ModeCreate, DefaultHints())
		if err != nil {
			panic(err)
		}
		const arrayLen = 64 << 10
		for k := 0; k < 8; k++ {
			base := int64(k) * arrayLen * 2 // distinct regions
			var runs []mpi.Run
			var data []byte
			per := arrayLen / nprocs
			for i := 0; i < 4; i++ { // interleaved pieces force two-phase
				off := base + int64((i*nprocs+r.Rank())*per/4)
				runs = append(runs, mpi.Run{Off: off, Len: int64(per / 4)})
				data = append(data, make([]byte, per/4)...)
			}
			before := fs.Stats().WriteReqs
			f.WriteAtAll(runs, data)
			if fs.Stats().WriteReqs > before {
				aggWrites[r.Rank()]++
			}
		}
		f.Close()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	active := 0
	for _, w := range aggWrites {
		if w > 0 {
			active++
		}
	}
	if active < 2 {
		t.Fatalf("aggregator duty not rotated: %v", aggWrites)
	}
}

func TestCollectiveReadForcedMatchesAutomatic(t *testing.T) {
	for _, force := range []bool{false, true} {
		force := force
		t.Run(fmt.Sprintf("force=%v", force), func(t *testing.T) {
			nprocs := 3
			const per = 10000
			eng := sim.NewEngine()
			mach := machine.New(testMachineCfg())
			fs := pfs.NewXFS(mach, pfs.DefaultXFS())
			ok := make([]bool, nprocs)
			mpi.NewWorld(eng, mach, nprocs, func(r *mpi.Rank) {
				h := DefaultHints()
				h.CBForce = force
				f, err := Open(r, fs, "rr", ModeCreate, h)
				if err != nil {
					panic(err)
				}
				if r.Rank() == 0 {
					for i := 0; i < nprocs; i++ {
						f.WriteAt(pattern(i, per), int64(i*per))
					}
				}
				r.Barrier()
				buf := make([]byte, per)
				f.ReadAtAll([]mpi.Run{{Off: int64(r.Rank() * per), Len: per}}, buf)
				ok[r.Rank()] = bytes.Equal(buf, pattern(r.Rank(), per))
				f.Close()
			})
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			for rank, good := range ok {
				if !good {
					t.Fatalf("rank %d read wrong data (force=%v)", rank, force)
				}
			}
		})
	}
}

// TestDerivedDatatypeViews drives WriteRuns/ReadRuns through the run list
// an application's MPI_Type_vector file view flattens to.
func TestDerivedDatatypeViews(t *testing.T) {
	eng := sim.NewEngine()
	mach := machine.New(testMachineCfg())
	fs := pfs.NewXFS(mach, pfs.DefaultXFS())
	mpi.NewWorld(eng, mach, 1, func(r *mpi.Rank) {
		f, err := Open(r, fs, "vec", ModeCreate, DefaultHints())
		if err != nil {
			panic(err)
		}
		// A column of a 8x8 int32 matrix: vector of 8 blocks of 1
		// element, stride 8, shifted to column 3.
		var view []mpi.Run
		for row := int64(0); row < 8; row++ {
			view = append(view, mpi.Run{Off: (row*8 + 3) * 4, Len: 4})
		}
		data := bytes.Repeat([]byte{0xAB, 0xCD, 0xEF, 0x01}, 8)
		f.WriteRuns(view, data)
		got := make([]byte, len(data))
		f.ReadRuns(view, got)
		if !bytes.Equal(got, data) {
			panic("vector view round trip failed")
		}
		// Matrix cells outside the column stay zero.
		row := make([]byte, 8*4)
		f.ReadAt(row, 0)
		for i := 0; i < 8*4; i += 4 {
			inColumn := i == 3*4
			zero := row[i] == 0 && row[i+1] == 0 && row[i+2] == 0 && row[i+3] == 0
			if inColumn == zero {
				panic("column write leaked outside its view")
			}
		}
		f.Close()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}
