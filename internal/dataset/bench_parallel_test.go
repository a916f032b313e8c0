package dataset

// BenchmarkParallelSelect measures the partitioned select at 1/2/4/8
// workers over a store large enough that every subbenchmark clears the
// parallel cutoff: a one-app indexed select (candidate-list partitioning)
// and an unindexed range scan (row-range partitioning).

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkParallelSelect(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := randomStore(rng, 200_000)
	sn := s.Snapshot()
	oneApp := Filter{AppName: "lammps"}
	scan := Filter{MinNodes: 2}
	wantApp, wantScan := len(sn.Select(oneApp)), len(sn.Select(scan))

	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("one-app/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := selectWith(sn, oneApp, workers); len(got) != wantApp {
					b.Fatalf("row count changed: %d", len(got))
				}
			}
		})
		b.Run(fmt.Sprintf("scan/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := selectWith(sn, scan, workers); len(got) != wantScan {
					b.Fatalf("row count changed: %d", len(got))
				}
			}
		})
	}
}
