package pfs

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sim"
)

// XFSConfig parameterizes the Origin2000 scratch volume model: an XFS file
// system over a striped multi-LUN RAID, reached through the ccNUMA memory
// system (no network hop). A single sequential writer is limited by the
// buffer-cache copy and one stream's worth of disk pipeline; many parallel
// writers approach the aggregate LUN bandwidth — which is exactly why the
// paper's MPI-IO port wins on this platform.
type XFSConfig struct {
	Luns     int        // number of striped LUNs
	Unit     int64      // stripe unit in bytes
	Disk     DiskParams // per-LUN characteristics
	PerCall  float64    // system-call + VFS overhead per read/write call
	MetaTime float64    // create/open metadata transaction
}

// DefaultXFS returns the calibration used for the paper reproduction.
func DefaultXFS() XFSConfig {
	return XFSConfig{
		Luns:     6,
		Unit:     512 * 1024,
		Disk:     DiskParams{Seek: 1.0e-3, PerReq: 0.1e-3, BW: 55e6},
		PerCall:  60e-6,
		MetaTime: 2e-3,
	}
}

// XFS is the shared-memory striped file system model. Its LUNs are
// client-local and cannot straggle or die, so a deadline is never missed:
// By is Block here.
type XFS struct {
	volume
	cfg    XFSConfig
	mach   *machine.Machine
	luns   []*Disk
	stripe layout // every file's
}

// NewXFS builds an XFS volume on the given machine.
func NewXFS(mach *machine.Machine, cfg XFSConfig) *XFS {
	if cfg.Luns <= 0 {
		panic("pfs: XFS needs at least one LUN")
	}
	fs := &XFS{cfg: cfg, mach: mach, stripe: volumeLayout(cfg.Unit, cfg.Luns)}
	for i := 0; i < cfg.Luns; i++ {
		fs.luns = append(fs.luns, NewDisk(fmt.Sprintf("xfs/lun%d", i), cfg.Disk))
	}
	fs.mount("xfs", fs)
	return fs
}

func (fs *XFS) meta(c Client, op string) { metaTxn(c, op, fs.cfg.MetaTime) }

// issue charges the syscall, buffer-cache copy and LUN queues for an access
// of n bytes at off (reads and writes cost the same). Once the data is in
// the buffer cache (the copy stays on the caller's clock) the LUN work
// proceeds on its own, so a Behind request defers only the wait for the
// last stripe.
func (fs *XFS) issue(c Client, f *volFile, write bool, off, n int64) float64 {
	c.Proc.Advance(fs.cfg.PerCall + fs.mach.CopyTime(n)) // syscall + buffer-cache copy
	end := c.Proc.Now()
	for sp := range fs.stripe.spans(off, n) {
		if e := fs.luns[sp.server].Access(c.Proc.Now(), sp.localOff, sp.n); e > end {
			end = e
		}
	}
	return end
}

// SetServeObserver implements ServeObservable over every LUN queue.
func (fs *XFS) SetServeObserver(o sim.ServeObserver) {
	for _, d := range fs.luns {
		d.Server().SetObserver(o)
	}
}
