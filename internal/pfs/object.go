package pfs

// This file is the placement surface the content-addressed checkpoint
// store builds on (Grid-Datafarm style replicated objects): optional
// capability interfaces, resolved through As, never part of the core
// FileSystem contract.
//
//   - PlacedCreator creates a file that lives entirely on one chosen data
//     server instead of being striped. The castore places each replica
//     container on a distinct server this way, so losing one server loses
//     at most one replica of any chunk.
//   - ReplicaVolume exposes per-data-server liveness and load, which the
//     castore read path uses to route a chunk fetch to the least-loaded
//     live replica and to skip servers already known dead.
//   - Peeker shows a file's stored bytes without a read, so a castore
//     reader can decode ahead of its fetches the payloads they will be lent.
//
// The striped models implement the first three through their stripedVolume
// (volume.go). XFS and LocalFS implement none of those (their storage is
// client-local); replica placement degrades to plain files there and the
// replica count clamps to one. Every model implements Peeker, and prefix
// renames it.

// PlacedCreator is implemented by file systems that can pin a new file to
// a single data server. server is taken modulo the volume's server count.
type PlacedCreator interface {
	CreatePlaced(c Client, name string, server int) (File, error)
}

// ReplicaVolume is implemented by file systems whose data servers can be
// individually inspected for liveness and load. FailAt is +Inf for a
// healthy server (matching sim.Server); FreeAt is when the server's
// storage device drains its current queue.
type ReplicaVolume interface {
	NumDataServers() int
	DataServerFreeAt(i int) float64
	DataServerFailAt(i int) float64
}

// PlacementRestorer re-pins an existing file onto one data server. Out-of-
// band staging (Snapshot/Restore) copies bytes but loses per-file layout —
// the castore re-asserts each container's placement on first open, since
// the placement is deterministic from the container name. Returns false if
// the file does not exist.
type PlacementRestorer interface {
	PlaceExisting(name string, server int) bool
}

// Peeker is implemented by the models, which hold their files' bytes, and by
// prefix, which renames. Peek returns the bytes [off, off+n) of file name
// when one stored extent holds them all — the very memory, capped, that a
// lend read of that range would be handed (ByteStore.Peek) — and nil
// otherwise: a missing file, a range across extents or holes. It opens
// nothing, charges no clock, counts in no stats and passes no tap, so what
// it returns is a guess at what a read will see, never a read: a caller
// that acts on it checks that the read was lent that same memory. c names
// the caller's node (LocalFS keeps a partition per node) and pays nothing.
type Peeker interface {
	Peek(c Client, name string, off, n int64) []byte
}

// CreatePlacedOn creates name pinned to the given data server when fs
// supports placement and as a plain (default-layout) file otherwise. Every
// wrapper implements PlacedCreator (it must wrap the handle it gets back),
// so the assertion on the outermost layer reaches the model.
func CreatePlacedOn(fs FileSystem, c Client, name string, server int) (File, error) {
	if pc, ok := fs.(PlacedCreator); ok {
		return pc.CreatePlaced(c, name, server)
	}
	return fs.Create(c, name)
}
