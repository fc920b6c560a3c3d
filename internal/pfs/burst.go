package pfs

import (
	"fmt"

	"repro/internal/sim"
)

// BurstConfig parameterizes the node-local burst-buffer staging tier.
type BurstConfig struct {
	// Disk is the per-node staging device (a local scratch disk or small
	// striped pair — fast for the single writer that owns it, invisible to
	// the shared fabric).
	Disk DiskParams
}

// DefaultBurst returns the staging-device calibration: a node-local
// scratch volume whose sequential bandwidth comfortably beats the shared
// Ethernet path, which is what makes staging worthwhile on chiba-class
// clusters.
func DefaultBurst() BurstConfig {
	return BurstConfig{Disk: DiskParams{Seek: 9e-3, PerReq: 0.2e-3, BW: 60e6}}
}

// BurstBuffer is a transparent write-staging tier over any shared
// FileSystem: every write lands on the writer node's local staging disk at
// local speed, then drains to the backing file system as a Behind request
// (the same charge-at-issue contract AsyncIO uses), so the shared data
// servers see exactly the arrivals a direct write issued at the same
// instants would produce.
//
// Ordering/aliasing contract: the backing store's *contents* are updated
// at issue (bytes are captured immediately; callers may reuse buffers),
// but the shared copy is only *settled* — readable without time travel —
// at the drain completion. Every read therefore first waits for the file's
// latest drain to settle (a flush barrier per file), then pays the backing
// read path. Readers on other nodes never see a torn or stale file; the
// price is that a read chasing a hot drain stalls until the drain is done.
//
// Of the volume capabilities it implements only what it changes:
// ServeObservable for its staging disks and PlacedCreator (it wraps the
// handle); the rest are found below it through Unwrap.
type BurstBuffer struct {
	backing FileSystem
	cfg     BurstConfig

	disks map[int]*Disk // per-node staging disk, lazily created
	obs   sim.ServeObserver

	// drainEnd is the per-file settle time of the latest drain issued for
	// it; reads AdvanceTo at least this far before touching the backing
	// copy.
	drainEnd map[string]float64

	// staging statistics
	stagedBytes  int64
	stagedWrites int64
	drainStalls  int64   // reads that had to wait for a drain to settle
	stallTime    float64 // total virtual seconds those reads waited
	maxDrainLag  float64 // largest (drain settle − local completion) gap
}

// WrapBurstBuffer wraps backing with a node-local staging tier.
func WrapBurstBuffer(backing FileSystem, cfg BurstConfig) *BurstBuffer {
	if cfg.Disk.BW <= 0 {
		panic("pfs: burst buffer staging disk needs positive bandwidth")
	}
	return &BurstBuffer{
		backing:  backing,
		cfg:      cfg,
		disks:    make(map[int]*Disk),
		drainEnd: make(map[string]float64),
	}
}

// Unwrap implements Wrapper: the shared file system staged writes drain to.
func (bb *BurstBuffer) Unwrap() FileSystem { return bb.backing }

// Name implements FileSystem.
func (bb *BurstBuffer) Name() string { return "bb+" + bb.backing.Name() }

// disk returns (creating on first use) the staging disk of a node.
func (bb *BurstBuffer) disk(node int) *Disk {
	d, ok := bb.disks[node]
	if !ok {
		d = NewDisk(fmt.Sprintf("bb/node%d", node), bb.cfg.Disk)
		if bb.obs != nil {
			d.Server().SetObserver(bb.obs)
		}
		bb.disks[node] = d
	}
	return d
}

// SetServeObserver implements ServeObservable over every staging disk,
// including ones created later.
func (bb *BurstBuffer) SetServeObserver(o sim.ServeObserver) {
	bb.obs = o
	for _, d := range bb.disks {
		d.Server().SetObserver(o)
	}
}

// Create implements FileSystem (metadata goes to the shared namespace:
// files must be visible fleet-wide even before their first drain).
func (bb *BurstBuffer) Create(c Client, name string) (File, error) {
	return bb.wrap(bb.backing.Create(c, name))
}

// Open implements FileSystem.
func (bb *BurstBuffer) Open(c Client, name string) (File, error) {
	return bb.wrap(bb.backing.Open(c, name))
}

// Exists implements FileSystem.
func (bb *BurstBuffer) Exists(name string) bool { return bb.backing.Exists(name) }

// Stats implements FileSystem (the backing tier's accounting: every write
// drains there, so logical traffic is identical).
func (bb *BurstBuffer) Stats() Stats { return bb.backing.Stats() }

// Snapshot implements FileSystem. Out-of-band staging copies the backing
// contents, which hold every byte written (drains capture data at issue).
func (bb *BurstBuffer) Snapshot() map[string][]byte { return bb.backing.Snapshot() }

// Restore implements FileSystem.
func (bb *BurstBuffer) Restore(files map[string][]byte) { bb.backing.Restore(files) }

// StagingStats reports the tier's own accounting: bytes and writes staged
// through local disks, how many reads stalled on an unsettled drain (and
// for how long in total), and the largest local-completion→drain-settle
// lag observed.
func (bb *BurstBuffer) StagingStats() (bytes, writes, stalls int64, stallTime, maxLag float64) {
	return bb.stagedBytes, bb.stagedWrites, bb.drainStalls, bb.stallTime, bb.maxDrainLag
}

// noteDrain records a drain issued for name settling at end.
func (bb *BurstBuffer) noteDrain(name string, localEnd, end float64) {
	if end > bb.drainEnd[name] {
		bb.drainEnd[name] = end
	}
	if lag := end - localEnd; lag > bb.maxDrainLag {
		bb.maxDrainLag = lag
	}
}

// awaitDrain blocks c until every drain issued for name has settled,
// counting the stall.
func (bb *BurstBuffer) awaitDrain(c Client, name string) {
	if end := bb.drainEnd[name]; end > c.Proc.Now() {
		bb.drainStalls++
		bb.stallTime += end - c.Proc.Now()
		c.Proc.AdvanceTo(end)
	}
}

// CreatePlaced implements PlacedCreator (plain create when the backing
// tier has no placement).
func (bb *BurstBuffer) CreatePlaced(c Client, name string, server int) (File, error) {
	return bb.wrap(CreatePlacedOn(bb.backing, c, name, server))
}

// wrap puts the staging handle around a backing handle.
func (bb *BurstBuffer) wrap(f File, err error) (File, error) {
	if err != nil {
		return File{}, err
	}
	return File{&bbFile{bb: bb, f: f}}, nil
}

// bbFile is a handle on a staged file: writes hit the local disk then
// drain; reads settle the drain then hit the backing tier.
type bbFile struct {
	bb *BurstBuffer
	f  File
}

func (f *bbFile) Name() string        { return f.f.Name() }
func (f *bbFile) Size(c Client) int64 { return f.f.Size(c) }
func (f *bbFile) Close(c Client)      { f.f.Close(c) }

// stage charges the caller's local staging disk for a write and returns
// its completion time (not advancing the clock).
func (f *bbFile) stage(c Client, n, off int64) float64 {
	bb := f.bb
	bb.stagedBytes += n
	bb.stagedWrites++
	return bb.disk(c.Node).AccessClass(c.Proc.Now(), off, n, c.Proc.Class())
}

// Do implements Handle.
//
// A write is staged locally and settled on the *local* completion — a
// burst-buffer dump is done when the staging disk has it, and that is the
// completion a deadline guards — then the drain is issued Behind at the
// clock settle left: after the local wait for a blocking write, at issue
// for a Behind one. The drain settles via the per-file barrier.
//
// A read folds that barrier into its own wait: Block settles the file's
// drains first, By additionally counts them toward the deadline, and a
// Behind read completes no earlier than the drain it chases.
func (f *bbFile) Do(c Client, r Req) (float64, error) {
	bb, name := f.bb, f.f.Name()
	n := r.Len()
	if n == 0 {
		return idle(c, r)
	}
	if r.Write {
		localEnd := f.stage(c, n, r.Off)
		if _, err := settle(c, r, localEnd, bb.Name(), name, nil, nil); err != nil {
			return localEnd, err
		}
		bb.noteDrain(name, localEnd, WriteAtAsync(f.f, c, r.Buf, r.Off))
		return localEnd, nil
	}
	drain := bb.drainEnd[name]
	switch r.Mode {
	case Behind:
		end, err := f.f.Do(c, r)
		if drain > end {
			bb.drainStalls++
			bb.stallTime += drain - end
			end = drain
		}
		return end, err
	case By:
		if drain > r.Deadline {
			return settle(c, r, drain, bb.Name(), name, nil, nil)
		}
	}
	bb.awaitDrain(c, name)
	return f.f.Do(c, r)
}
