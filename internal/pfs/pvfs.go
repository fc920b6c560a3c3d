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
	cfg    PVFSConfig
	mach   *machine.Machine
	ns     *namespace
	disks  []*Disk
	iodNIC []*sim.Server
	iodCPU []*sim.Server
	mgr    *sim.Server
	// striping holds per-file striping parameters for files created with
	// CreateStriped (the paper's future-work "flexible,
	// application-specific disk file striping"); files without an entry
	// use the volume defaults.
	striping map[*ByteStore]stripeParams
	stats    statsCollector
}

// stripeParams is one file's striping layout: unit size, daemon count and
// the first daemon (so different files can start on different daemons).
type stripeParams struct {
	unit  int64
	iods  int
	first int
}

// NewPVFS builds a PVFS file system with cfg.IODs daemons.
func NewPVFS(mach *machine.Machine, cfg PVFSConfig) *PVFS {
	if cfg.IODs <= 0 {
		panic("pfs: PVFS needs at least one iod")
	}
	fs := &PVFS{cfg: cfg, mach: mach, ns: newNamespace(), mgr: sim.NewServer("pvfs/mgr"),
		striping: make(map[*ByteStore]stripeParams)}
	for i := 0; i < cfg.IODs; i++ {
		fs.disks = append(fs.disks, NewDisk(fmt.Sprintf("pvfs/iod%d/disk", i), cfg.Disk))
		fs.iodNIC = append(fs.iodNIC, sim.NewServer(fmt.Sprintf("pvfs/iod%d/nic", i)))
		fs.iodCPU = append(fs.iodCPU, sim.NewServer(fmt.Sprintf("pvfs/iod%d/cpu", i)))
	}
	return fs
}

// Name implements FileSystem.
func (fs *PVFS) Name() string { return "pvfs" }

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

// Stats implements FileSystem.
func (fs *PVFS) Stats() Stats { return fs.stats.snapshot() }

// Exists implements FileSystem.
func (fs *PVFS) Exists(name string) bool { return fs.ns.exists(name) }

// metaOp models a round trip to the metadata manager over Ethernet.
func (fs *PVFS) metaOp(c Client) {
	_, arr := fs.mach.TransferVia(fs.mach.NIC(c.Node), fs.mgr, fs.cfg.ReqMsg, c.Proc.Now())
	_, done := fs.mgr.Serve(arr, fs.cfg.MetaTime)
	c.Proc.AdvanceTo(done + fs.mach.Config().WireLatency)
}

// Create implements FileSystem.
func (fs *PVFS) Create(c Client, name string) (File, error) {
	fs.metaOp(c)
	fs.stats.create()
	return File{&pvfsFile{fs: fs, name: name, store: fs.ns.create(name)}}, nil
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
	if iods > fs.cfg.IODs {
		iods = fs.cfg.IODs
	}
	f, err := fs.Create(c, name)
	if err != nil {
		return File{}, err
	}
	fs.striping[f.Handle.(*pvfsFile).store] = stripeParams{unit: unit, iods: iods, first: ((first % fs.cfg.IODs) + fs.cfg.IODs) % fs.cfg.IODs}
	return f, nil
}

// params returns a file's striping layout (volume defaults if custom
// striping was never set).
func (f *pvfsFile) params() stripeParams {
	if p, ok := f.fs.striping[f.store]; ok {
		return p
	}
	return stripeParams{unit: f.fs.cfg.Unit, iods: f.fs.cfg.IODs}
}

// Open implements FileSystem.
func (fs *PVFS) Open(c Client, name string) (File, error) {
	st, err := fs.ns.open(name)
	if err != nil {
		return File{}, err
	}
	fs.metaOp(c)
	fs.stats.open()
	return File{&pvfsFile{fs: fs, name: name, store: st}}, nil
}

type pvfsFile struct {
	fs    *PVFS
	name  string
	store *ByteStore
}

func (f *pvfsFile) Name() string        { return f.name }
func (f *pvfsFile) Size(c Client) int64 { return f.store.Size() }
func (f *pvfsFile) Close(c Client)      {}

// perIOD groups the spans of a request by daemon.
func perIOD(spans []stripeSpan, n int) [][]stripeSpan {
	out := make([][]stripeSpan, n)
	for _, sp := range spans {
		out[sp.server] = append(out[sp.server], sp)
	}
	return out
}

// Do implements Handle: the client-library call and the request injections
// onto the wire happen at issue (so iod NICs, CPUs and disks see the same
// arrivals in every mode); settle decides how the caller waits for the
// slowest daemon.
func (f *pvfsFile) Do(c Client, r Req) (float64, error) {
	n := r.Len()
	if n == 0 {
		return idle(c, r)
	}
	var end float64
	if r.Write {
		end = f.writeIssue(c, n, r.Off)
	} else {
		end = f.readIssue(c, n, r.Off)
	}
	return settle(c, r, end, f.fs.Name(), f.name, f.store, &f.fs.stats)
}

// writeIssue charges the client library, the wire and every involved iod's
// CPU and disk for a write of n bytes at off, returning the completion time
// of the slowest daemon's ack. It does not store bytes or touch stats —
// the split lets settle abandon a request whose completion lies past its
// deadline while the devices stay charged (they did the work).
func (f *pvfsFile) writeIssue(c Client, n, off int64) float64 {
	fs := f.fs
	class := c.Proc.Class()
	c.Proc.Advance(fs.cfg.PerCall)
	end := c.Proc.Now()
	sp := f.params()
	spans := stripeSplit(off, n, sp.unit, sp.iods)
	for vIOD, group := range perIOD(spans, sp.iods) {
		if len(group) == 0 {
			continue
		}
		iod := (vIOD + sp.first) % fs.cfg.IODs
		var bytes int64
		for _, span := range group {
			bytes += span.n
		}
		// One request message carries this iod's portion of the data.
		_, arr := fs.mach.TransferVia(fs.mach.NIC(c.Node), fs.iodNIC[iod], fs.cfg.ReqMsg+bytes, c.Proc.Now())
		_, cpuDone := fs.iodCPU[iod].ServeClass(class, arr, fs.cfg.IODPerReq)
		e := cpuDone
		for _, span := range group {
			e = fs.disks[iod].AccessClass(e, span.localOff, span.n, class)
		}
		e += fs.mach.Config().WireLatency // ack
		if e > end {
			end = e
		}
	}
	return end
}

// readIssue charges every resource for a read of n bytes at off and
// returns the arrival time of the last data message, without transferring
// bytes or advancing the caller (the counterpart of writeIssue).
func (f *pvfsFile) readIssue(c Client, n, off int64) float64 {
	fs := f.fs
	class := c.Proc.Class()
	c.Proc.Advance(fs.cfg.PerCall)
	end := c.Proc.Now()
	sp := f.params()
	spans := stripeSplit(off, n, sp.unit, sp.iods)
	for vIOD, group := range perIOD(spans, sp.iods) {
		if len(group) == 0 {
			continue
		}
		iod := (vIOD + sp.first) % fs.cfg.IODs
		var bytes int64
		for _, span := range group {
			bytes += span.n
		}
		_, reqArr := fs.mach.TransferVia(fs.mach.NIC(c.Node), fs.iodNIC[iod], fs.cfg.ReqMsg, c.Proc.Now())
		_, cpuDone := fs.iodCPU[iod].ServeClass(class, reqArr, fs.cfg.IODPerReq)
		diskDone := cpuDone
		for _, span := range group {
			diskDone = fs.disks[iod].AccessClass(diskDone, span.localOff, span.n, class)
		}
		_, dataArr := fs.mach.TransferVia(fs.iodNIC[iod], fs.mach.NIC(c.Node), bytes, diskDone)
		if dataArr > end {
			end = dataArr
		}
	}
	return end
}

// Snapshot implements FileSystem (out-of-band staging).
func (fs *PVFS) Snapshot() map[string][]byte { return fs.ns.snapshot() }

// Restore implements FileSystem (out-of-band staging). Restored files use
// the volume's default striping.
func (fs *PVFS) Restore(files map[string][]byte) { fs.ns.restore(files) }
