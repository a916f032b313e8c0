package dataset

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// The partitioned select's contract: output byte-identical to the
// single-chunk run (and so to the SelectScan oracle) for every filter, at
// every worker count, including under concurrent use.

// selectWith runs Select at a pinned worker count.
func selectWith(sn *Snapshot, f Filter, workers int) []Point {
	c := f.Canonical()
	return sn.selectCanonical(&c, workers)
}

func TestParallelSelectMatchesSequentialAndScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Big enough that full scans and the popular app/SKU candidate lists
	// clear the parallel cutoff; small enough to stay fast.
	s := randomStore(rng, 3*parallelSelectMinCandidates)
	sn := s.Snapshot()

	filters := []Filter{
		{},
		{IncludeFailed: true},
		{AppName: "lammps"},
		{AppName: "lammps", SKU: "hb120rs_v3"},
		{MinNodes: 2, MaxNodes: 8},
		{Tags: map[string]string{"run": "r1"}},
		{AppName: "no-such-app"},
	}
	for i := 0; i < 60; i++ {
		filters = append(filters, randomFilter(rng))
	}
	for _, f := range filters {
		seq := selectWith(sn, f, 1)
		scan := s.SelectScan(f)
		if !reflect.DeepEqual(seq, scan) {
			t.Fatalf("filter %+v: sequential select disagrees with scan oracle", f)
		}
		if !reflect.DeepEqual(sn.Select(f), seq) {
			t.Fatalf("filter %+v: Select at the default worker count differs from sequential", f)
		}
		for _, workers := range []int{2, 4, 8} {
			par := selectWith(sn, f, workers)
			if !reflect.DeepEqual(par, seq) {
				t.Fatalf("filter %+v at %d workers: parallel select (%d rows) "+
					"differs from sequential (%d rows)", f, workers, len(par), len(seq))
			}
		}
	}
}

func TestParallelGroupSeriesMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randomStore(rng, 2*parallelSelectMinCandidates)
	sn := s.Snapshot()
	for _, f := range []Filter{{}, {AppName: "openfoam"}, {MinNodes: 2}} {
		seq := groupRuns(selectWith(sn, f, 1))
		par := groupRuns(selectWith(sn, f, 4))
		if !reflect.DeepEqual(par, seq) || !reflect.DeepEqual(sn.GroupSeries(f), seq) {
			t.Fatalf("filter %+v: parallel GroupSeries differs from sequential", f)
		}
	}
}

// TestParallelSelectConcurrent drives the parallel path from many
// goroutines at once — the race detector's target.
func TestParallelSelectConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := randomStore(rng, 2*parallelSelectMinCandidates)
	sn := s.Snapshot()
	want := map[string]int{}
	filters := []Filter{{}, {AppName: "wrf"}, {SKU: "hc44rs"}, {IncludeFailed: true}}
	keys := []string{"all", "wrf", "hc44rs", "failed"}
	for i, f := range filters {
		want[keys[i]] = len(selectWith(sn, f, 1))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				f := filters[(g+i)%len(filters)]
				got := selectWith(sn, f, 4)
				if len(got) != want[keys[(g+i)%len(filters)]] {
					t.Errorf("concurrent select row count changed: %d", len(got))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSelectEmptySnapshot: an empty candidate domain returns nil at every
// worker count rather than dividing it into zero-sized chunks.
func TestSelectEmptySnapshot(t *testing.T) {
	sn := NewStore().Snapshot()
	for _, f := range []Filter{{}, {IncludeFailed: true}, {MinNodes: 2}, {Tags: map[string]string{"run": "r1"}}} {
		if got := sn.Select(f); got != nil {
			t.Fatalf("filter %+v on an empty snapshot: got %d rows, want nil", f, len(got))
		}
		for _, workers := range []int{1, 2, 8} {
			if got := selectWith(sn, f, workers); got != nil {
				t.Fatalf("filter %+v at %d workers on an empty snapshot: got %d rows, want nil", f, workers, len(got))
			}
		}
	}
	if got := sn.GroupSeries(Filter{}); len(got) != 0 {
		t.Fatalf("GroupSeries on an empty snapshot: %d series", len(got))
	}
}
