package pfs

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sim"
)

// PVFSConfig parameterizes the Chiba City PVFS model: user-level I/O
// daemons (iods) on dedicated nodes, a metadata manager, and all traffic
// carried over the same fast Ethernet the application's MPI messages use.
// Per-request costs are high (TCP processing in a user-level daemon), so
// access patterns with many small chunks suffer — the paper's Figure 8
// observation.
type PVFSConfig struct {
	IODs      int        // number of I/O daemons
	Unit      int64      // stripe unit
	Disk      DiskParams // per-iod disk
	IODPerReq float64    // daemon CPU per request (TCP + user-level processing)
	PerCall   float64    // client library overhead per call
	MetaTime  float64    // manager transaction for create/open
	ReqMsg    int64      // request message size in bytes
}

// DefaultPVFS returns the calibration used for the paper reproduction.
func DefaultPVFS() PVFSConfig {
	return PVFSConfig{
		IODs:      8,
		Unit:      64 * 1024,
		Disk:      DiskParams{Seek: 9e-3, PerReq: 0.3e-3, BW: 22e6},
		IODPerReq: 1.2e-3,
		PerCall:   80e-6,
		MetaTime:  4e-3,
		ReqMsg:    256,
	}
}

// PVFS is the Linux-cluster parallel file system model. The iods live on
// machine nodes [IODBase, IODBase+IODs), so their NICs are distinct from
// the compute nodes' NICs but obey the same Ethernet parameters.
type PVFS struct {
	stripedVolume
	cfg    PVFSConfig
	mach   *machine.Machine
	iodNIC []*sim.Server
	iodCPU []*sim.Server
	mgr    *sim.Server
}

// NewPVFS builds a PVFS file system with cfg.IODs daemons.
func NewPVFS(mach *machine.Machine, cfg PVFSConfig) *PVFS {
	if cfg.IODs <= 0 {
		panic("pfs: PVFS needs at least one iod")
	}
	fs := &PVFS{cfg: cfg, mach: mach, mgr: sim.NewServer("pvfs/mgr")}
	var disks []*Disk
	for i := 0; i < cfg.IODs; i++ {
		disks = append(disks, NewDisk(fmt.Sprintf("pvfs/iod%d/disk", i), cfg.Disk))
		fs.iodNIC = append(fs.iodNIC, sim.NewServer(fmt.Sprintf("pvfs/iod%d/nic", i)))
		fs.iodCPU = append(fs.iodCPU, sim.NewServer(fmt.Sprintf("pvfs/iod%d/cpu", i)))
	}
	fs.mount("pvfs", fs, cfg.Unit, disks)
	return fs
}

// SetServeObserver implements ServeObservable over the manager and every
// iod's NIC, CPU and disk queues (all created eagerly).
func (fs *PVFS) SetServeObserver(o sim.ServeObserver) {
	fs.mgr.SetObserver(o)
	for i := range fs.disks {
		fs.disks[i].Server().SetObserver(o)
		fs.iodNIC[i].SetObserver(o)
		fs.iodCPU[i].SetObserver(o)
	}
}

// SetSchedPolicy installs a scheduling policy on every data-path server —
// each iod's CPU and disk queue — arbitrating between tenant service
// classes (sim.Proc.Class, carried through pfs.Client). newPolicy is
// called once per server so each gets a fresh state-carrying instance; a
// nil func restores the built-in FIFO. NICs and the metadata manager stay
// FIFO: fairness is enforced where the seconds are spent, at the daemons.
func (fs *PVFS) SetSchedPolicy(newPolicy func(server string) sim.SchedPolicy) {
	for i := range fs.disks {
		for _, srv := range []*sim.Server{fs.disks[i].Server(), fs.iodCPU[i]} {
			if newPolicy == nil {
				srv.SetPolicy(nil)
			} else {
				srv.SetPolicy(newPolicy(srv.Name()))
			}
		}
	}
}

// meta models a create or open as a round trip to the metadata manager over
// Ethernet; a close costs nothing.
func (fs *PVFS) meta(c Client, op string) {
	if op == "close" {
		return
	}
	_, arr := fs.mach.TransferVia(fs.mach.NIC(c.Node), fs.mgr, fs.cfg.ReqMsg, c.Proc.Now())
	_, done := fs.mgr.Serve(arr, fs.cfg.MetaTime)
	c.Proc.AdvanceTo(done + fs.mach.Config().WireLatency)
}

// CreateStriped creates a file with application-specific striping — the
// flexible per-file distribution the paper's conclusion asks parallel file
// systems for. unit is the stripe size; iods how many daemons the file
// spreads over (capped at the volume's daemon count); first rotates the
// starting daemon so small files on few daemons still balance globally.
func (fs *PVFS) CreateStriped(c Client, name string, unit int64, iods, first int) (File, error) {
	if unit <= 0 || iods <= 0 {
		return File{}, fmt.Errorf("pfs: invalid striping unit=%d iods=%d for %q", unit, iods, name)
	}
	f := fs.create(c, name)
	fs.layouts.set(f.store, unit, iods, first)
	return File{f}, nil
}

// issue charges the client library, the wire and every involved iod's CPU
// and disk for a request of n bytes at off, returning when the slowest
// daemon's part is done: a write's ack, a read's last data message. The
// client-library call and the request injections onto the wire happen at
// issue, so iod NICs, CPUs and disks see the same arrivals in every mode.
func (fs *PVFS) issue(c Client, f *volFile, write bool, off, n int64) float64 {
	class := c.Proc.Class()
	c.Proc.Advance(fs.cfg.PerCall)
	end := c.Proc.Now()
	for sp := range fs.layouts.of(f.store).spans(off, n) {
		iod, msg := sp.server, fs.cfg.ReqMsg
		if write {
			msg += sp.n // one request message carries this iod's portion of the data
		}
		_, arr := fs.mach.TransferVia(fs.mach.NIC(c.Node), fs.iodNIC[iod], msg, c.Proc.Now())
		_, cpuDone := fs.iodCPU[iod].ServeClass(class, arr, fs.cfg.IODPerReq)
		e := fs.disks[iod].AccessClass(cpuDone, sp.localOff, sp.n, class)
		if write {
			e += fs.mach.Config().WireLatency // ack
		} else {
			_, e = fs.mach.TransferVia(fs.iodNIC[iod], fs.mach.NIC(c.Node), sp.n, e) // the data
		}
		if e > end {
			end = e
		}
	}
	return end
}
