package mdms

import (
	"encoding/binary"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mpiio"
)

// Accessor performs distributed array accesses through the method the
// MDMS advises and feeds the measured outcome back into the database —
// the closed loop the paper's future work describes. All methods are
// collective: every rank of the file's communicator must call them.
type Accessor struct {
	App *Application
	F   *mpiio.File
}

// NewAccessor binds an application's metadata to an open MPI-IO file.
func NewAccessor(app *Application, f *mpiio.File) *Accessor {
	return &Accessor{App: app, F: f}
}

// WriteArray writes this rank's subarray of a registered dataset stored at
// file offset base, using the advised method, and records the outcome.
func (ac *Accessor) WriteArray(name string, base int64, sub mpi.Subarray, data []byte) error {
	r := ac.F.Rank()
	method, err := ac.App.Advise(name, "write", r.Size())
	if err != nil {
		return err
	}
	runs := sub.AppendRuns(nil, base)
	t0 := r.Now()
	switch method {
	case core.MethodCollective:
		ac.F.WriteAtAll(runs, data)
	case core.MethodBlockwiseRedistribute:
		ac.F.WriteRuns(runs, data)
		r.Barrier()
	case core.MethodSerialRoot:
		ac.serialRootWrite(runs, data)
	}
	return ac.record(name, "write", method, int64(len(data)), r.Now()-t0)
}

// ReadArray reads this rank's subarray of a registered dataset.
func (ac *Accessor) ReadArray(name string, base int64, sub mpi.Subarray, buf []byte) error {
	r := ac.F.Rank()
	method, err := ac.App.Advise(name, "read", r.Size())
	if err != nil {
		return err
	}
	runs := sub.AppendRuns(nil, base)
	t0 := r.Now()
	switch method {
	case core.MethodCollective:
		ac.F.ReadAtAll(runs, buf)
	case core.MethodBlockwiseRedistribute:
		ac.F.ReadRuns(runs, buf)
		r.Barrier()
	case core.MethodSerialRoot:
		ac.serialRootRead(runs, buf)
	}
	return ac.record(name, "read", method, int64(len(buf)), r.Now()-t0)
}

// record aggregates the global outcome (max time, summed bytes) and stores
// it once, from rank 0.
func (ac *Accessor) record(name, op string, method core.Method, localBytes int64, localSecs float64) error {
	r := ac.F.Rank()
	secs := r.AllreduceFloat64(localSecs, mpi.OpMax)
	bytes := r.AllreduceInt64(localBytes, mpi.OpSum)
	if r.Rank() != 0 {
		return nil
	}
	return ac.App.Record(name, AccessRecord{
		Op: op, Method: method, Procs: r.Size(), Bytes: bytes, Seconds: secs,
	})
}

// wire format for the serial-root funnel: u32 count, count x (off, len)
// pairs, payload.
func encodeRuns(runs []mpi.Run, data []byte) []byte {
	out := make([]byte, 4+16*len(runs)+len(data))
	binary.LittleEndian.PutUint32(out, uint32(len(runs)))
	p := 4
	for _, run := range runs {
		binary.LittleEndian.PutUint64(out[p:], uint64(run.Off))
		binary.LittleEndian.PutUint64(out[p+8:], uint64(run.Len))
		p += 16
	}
	copy(out[p:], data)
	return out
}

func decodeRuns(msg []byte) ([]mpi.Run, []byte) {
	if len(msg) < 4 {
		return nil, nil
	}
	count := int(binary.LittleEndian.Uint32(msg))
	runs := make([]mpi.Run, count)
	p := 4
	for i := range runs {
		runs[i] = mpi.Run{
			Off: int64(binary.LittleEndian.Uint64(msg[p:])),
			Len: int64(binary.LittleEndian.Uint64(msg[p+8:])),
		}
		p += 16
	}
	return runs, msg[p:]
}

// serialRootWrite is the original design's method: everyone ships their
// pieces to rank 0, which performs all file access.
func (ac *Accessor) serialRootWrite(runs []mpi.Run, data []byte) {
	r := ac.F.Rank()
	gathered := r.Gatherv(0, encodeRuns(runs, data))
	if r.Rank() == 0 {
		for _, msg := range gathered {
			rr, payload := decodeRuns(msg)
			if len(rr) > 0 {
				ac.F.WriteRuns(rr, payload)
			}
		}
	}
	r.Barrier()
}

// serialRootRead: rank 0 reads everyone's pieces and scatters them back.
func (ac *Accessor) serialRootRead(runs []mpi.Run, buf []byte) {
	r := ac.F.Rank()
	gathered := r.Gatherv(0, encodeRuns(runs, nil))
	var parts [][]byte
	if r.Rank() == 0 {
		parts = make([][]byte, r.Size())
		for src, msg := range gathered {
			rr, _ := decodeRuns(msg)
			payload := make([]byte, mpi.TotalLen(rr))
			if len(rr) > 0 {
				ac.F.ReadRuns(rr, payload)
			}
			parts[src] = payload
		}
	}
	got := r.Scatterv(0, parts)
	copy(buf, got)
}
