package pfs

import (
	"fmt"
	"math"
)

// This file is the fault-injection surface of the file system models:
// StripeFaultInjector marks one of a file system's striped data servers
// degraded (a straggler: every service time scaled by a factor) or dead
// from a virtual time onward, and a By request (pfs.go) surfaces a typed
// *DeviceError instead of blocking past its deadline — the hook the MPI-IO
// layer's timeout/retry machinery needs, since a dead server would
// otherwise push the caller's clock to +Inf.
//
// Everything stays deterministic: a fault changes the virtual-time
// arithmetic of the affected requests, never the scheduling order.

// DeviceError reports that a By request could not complete by its
// deadline: the device's completion time (possibly +Inf, for a dead
// server) lies beyond it. The caller's clock has been advanced exactly to
// the deadline — the virtual cost of waiting out the timeout — and no bytes
// were transferred. The request still occupied the servers it was issued
// to: a retry queues behind the abandoned attempt, exactly like a real
// device queue that cannot revoke submitted work.
type DeviceError struct {
	FS       string  // file system name
	File     string  // file name
	Op       string  // "read" or "write"
	Deadline float64 // absolute virtual deadline that expired
	// Completion is when the device would have finished (+Inf if never).
	Completion float64
}

func (e *DeviceError) Error() string {
	if math.IsInf(e.Completion, 1) {
		return fmt.Sprintf("pfs: %s %s %q: device dead, request never completes (deadline %.6f)",
			e.FS, e.Op, e.File, e.Deadline)
	}
	return fmt.Sprintf("pfs: %s %s %q: deadline %.6f exceeded (device completion %.6f)",
		e.FS, e.Op, e.File, e.Deadline, e.Completion)
}

// Timeout marks the error as a timeout in the net.Error tradition.
func (e *DeviceError) Timeout() bool { return true }

// StripeFaultInjector is implemented by file systems whose striped data
// servers can be individually degraded or killed — the paper-era failure
// modes: PVFS had no redundancy, so one slow or dead iod gates every
// striped access.
type StripeFaultInjector interface {
	// NumDataServers returns how many striped data servers exist.
	NumDataServers() int
	// DegradeDataServer multiplies every service time of server i's
	// storage path by factor (1 restores health).
	DegradeDataServer(i int, factor float64)
	// FailDataServerAt kills server i's storage device at virtual time t:
	// requests starting at or after t never complete.
	FailDataServerAt(i int, t float64)
}

// StripedVolume is implemented by file systems that stripe file data over
// multiple data servers in fixed-size units. Diagnosis tooling uses it to
// judge request sizes and collective-buffering configuration against the
// volume's geometry.
type StripedVolume interface {
	// NumDataServers returns how many striped data servers exist.
	NumDataServers() int
	// StripeUnit returns the stripe unit in bytes.
	StripeUnit() int64
}

// DegradeDataServer implements StripeFaultInjector: both the iod's daemon
// CPU and its disk slow down, like a node with a failing DIMM or a
// background RAID rebuild.
func (fs *PVFS) DegradeDataServer(i int, factor float64) {
	fs.iodCPU[i].SetSlowdown(factor)
	fs.disks[i].Server().SetSlowdown(factor)
}

// DegradeDataServer implements StripeFaultInjector on the server's disk.
func (fs *GPFS) DegradeDataServer(i int, factor float64) {
	fs.disks[i].Server().SetSlowdown(factor)
}
