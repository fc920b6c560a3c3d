package amr

import "testing"

// Results of the measured calls, kept so the compiler cannot drop them.
var (
	benchHierarchy *Hierarchy
	benchChildren  []*Grid
)

// BenchmarkBuildHierarchy times the whole problem generation: the root
// grid's fields and particles, then two levels of refinement, with the
// parameters of enzo's AMR64 and AMR128 configs.
func BenchmarkBuildHierarchy(b *testing.B) {
	for _, p := range goldenProblems {
		if p.name != "AMR64" && p.name != "AMR128" {
			continue
		}
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchHierarchy = p.build()
			}
		})
	}
}

// BenchmarkRefine times one refinement of the AMR64 root: its clustered
// boxes prolonged and its 131,072 particles partitioned among them.
func BenchmarkRefine(b *testing.B) {
	root := NewTopGrid([3]int{64, 64, 64}, 64*64*64/2, DefaultClumps(1789, 8), 1789)
	boxes := ClusterFlags(root, FlagCells(root, 2.0), 8)
	particles := root.Particles
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root.Particles = particles // Refine leaves the original set untouched
		benchChildren = Refine(root, boxes)
	}
}
