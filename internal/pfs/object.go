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
//
// The striped models implement all three through their stripedVolume
// (volume.go). XFS and LocalFS implement none (their storage is
// client-local); replica placement degrades to plain files there and the
// replica count clamps to one.

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
