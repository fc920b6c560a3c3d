package pfs

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// TestBurstBufferStagesWritesAndSettlesReads: a staged write blocks the
// caller only for the local disk (faster than the shared path), a read of
// the same file first waits out the drain, and the bytes round-trip.
func TestBurstBufferStagesWritesAndSettlesReads(t *testing.T) {
	data := make([]byte, 2<<20)
	rand.New(rand.NewSource(9)).Read(data)

	// Reference: the same write straight to pvfs.
	var directEnd float64
	{
		fs := NewPVFS(chibaMachine(), DefaultPVFS())
		eng := sim.NewEngine()
		eng.Spawn("c", func(p *sim.Proc) {
			c := Client{Proc: p, Node: 0}
			f, _ := fs.Create(c, "dump")
			f.WriteAt(c, data, 0)
			directEnd = p.Now()
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}

	bb := WrapBurstBuffer(NewPVFS(chibaMachine(), DefaultPVFS()), DefaultBurst())
	eng := sim.NewEngine()
	var localEnd, readStart, readEnd float64
	buf := make([]byte, len(data))
	eng.Spawn("c", func(p *sim.Proc) {
		c := Client{Proc: p, Node: 0}
		f, err := bb.Create(c, "dump")
		if err != nil {
			panic(err)
		}
		f.WriteAt(c, data, 0)
		localEnd = p.Now()
		readStart = p.Now()
		f.ReadAt(c, buf, 0)
		readEnd = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("staged bytes did not round-trip through the backing tier")
	}
	if localEnd >= directEnd {
		t.Errorf("staged write blocked %gs, want under the direct write's %gs", localEnd, directEnd)
	}
	// The read must have stalled on the drain barrier: the shared copy
	// settles only once the background drain finishes.
	if readEnd <= readStart {
		t.Errorf("read did not wait for the drain (start %g, end %g)", readStart, readEnd)
	}
	staged, writes, stalls, stallTime, maxLag := bb.StagingStats()
	if staged != int64(len(data)) || writes != 1 {
		t.Errorf("staging stats = %d bytes / %d writes, want %d / 1", staged, writes, len(data))
	}
	if stalls != 1 || stallTime <= 0 || maxLag <= 0 {
		t.Errorf("drain stats = %d stalls / %g stall s / %g max lag, want a counted stall",
			stalls, stallTime, maxLag)
	}
}

// TestBurstBufferDeferredWrite: the deferred write returns the local
// completion without advancing the caller, and a later read still settles
// the drain first.
func TestBurstBufferDeferredWrite(t *testing.T) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(10)).Read(data)
	bb := WrapBurstBuffer(NewPVFS(chibaMachine(), DefaultPVFS()), DefaultBurst())
	eng := sim.NewEngine()
	eng.Spawn("c", func(p *sim.Proc) {
		c := Client{Proc: p, Node: 0}
		f, _ := bb.Create(c, "dump")
		issued := p.Now()
		end := WriteAtAsync(f, c, data, 0)
		// Only the client-library CPU cost may land on the caller at issue
		// (the same contract as the backing deferred writers); the staging
		// disk and drain waits must both be deferred.
		if p.Now() > issued+1e-3 {
			panic("deferred staged write blocked the caller beyond the library call")
		}
		if end <= issued {
			panic("deferred staged write returned a non-future completion")
		}
		p.AdvanceTo(end)
		buf := make([]byte, len(data))
		f.ReadAt(c, buf, 0)
		if !bytes.Equal(buf, data) {
			panic("deferred staged bytes did not round-trip")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestBurstBufferDelegatesCapabilities: striping geometry, fault injection
// and placement reach the backing tier through the wrapper (via Unwrap).
func TestBurstBufferDelegatesCapabilities(t *testing.T) {
	pv := NewPVFS(chibaMachine(), DefaultPVFS())
	bb := WrapBurstBuffer(pv, DefaultBurst())
	var fs FileSystem = bb
	sv, ok := As[StripedVolume](fs)
	if !ok {
		t.Fatal("burst buffer does not delegate StripedVolume")
	}
	if sv.NumDataServers() != pv.NumDataServers() || sv.StripeUnit() != pv.StripeUnit() {
		t.Errorf("striping geometry not delegated: %d/%d servers, %d/%d unit",
			sv.NumDataServers(), pv.NumDataServers(), sv.StripeUnit(), pv.StripeUnit())
	}
	inj, _ := As[StripeFaultInjector](fs)
	inj.FailDataServerAt(0, 1.5)
	rv, _ := As[ReplicaVolume](fs)
	if got := rv.DataServerFailAt(0); got != 1.5 {
		t.Errorf("fault injection not delegated: DataServerFailAt(0) = %g, want 1.5", got)
	}
	if bb.Name() != "bb+pvfs" {
		t.Errorf("Name() = %q, want bb+pvfs", bb.Name())
	}
}
