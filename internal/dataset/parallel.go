package dataset

import (
	"runtime"
	"sync"
)

// This file implements Select's one evaluation path, the partitioned
// two-phase select: the candidate domain is split into contiguous chunks,
// matchAt runs per chunk collecting hit positions, and the per-chunk hits
// are copied into one exactly sized output slice at precomputed offsets —
// so the result is byte-identical at every worker count (and to the
// SelectScan oracle): same rows, same canonical order, same nil-on-empty
// convention. Large domains (a cold one-app scan, a tag-only scan, an
// unconstrained GroupSeries) fan the chunks out across cores; small ones
// run a single chunk on the calling goroutine.

// parallelSelectMinCandidates is the fan-out cutoff. Below it the
// goroutine handoff costs more than the match loop itself — matchAt is a
// handful of integer compares, so a few thousand candidates run in
// single-digit microseconds — and the select runs as one chunk.
const parallelSelectMinCandidates = 4096

// selectWorkers is the worker count for a candidate domain of size n: one
// below the fan-out cutoff, GOMAXPROCS at or above it.
func selectWorkers(n int) int {
	if n < parallelSelectMinCandidates {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// selectChunks evaluates the resolved filter over a candidate domain of
// size n — positions list[i] when list is non-nil (an indexed probe), or
// 0..n-1 over the sorted rows (a full scan) — split into workers
// contiguous chunks. Two phases, both partitioned by chunk: match (each
// chunk collects its hit positions) and copy (prefix sums place every
// chunk's hits at their final offsets, so output order is exactly
// candidate order, which is canonical order).
func (sn *Snapshot) selectChunks(cf *colFilter, list []int32, n, workers int) []Point {
	if n == 0 {
		return nil // an empty domain has no chunks to divide it into
	}
	workers = min(workers, n)
	if workers == 1 {
		// One chunk on the calling goroutine, without the fan-out's
		// bookkeeping allocations.
		hits := sn.matchChunk(cf, list, 0, n)
		if len(hits) == 0 {
			return nil
		}
		out := make([]Point, len(hits))
		sn.copyHits(out, hits)
		return out
	}

	chunk := func(w int) (lo, hi int) {
		per, rem := n/workers, n%workers
		lo = w*per + min(w, rem)
		hi = lo + per
		if w < rem {
			hi++
		}
		return lo, hi
	}
	hits := make([][]int32, workers)
	fanOut(workers, func(w int) {
		lo, hi := chunk(w)
		hits[w] = sn.matchChunk(cf, list, lo, hi)
	})
	off := make([]int, workers+1)
	for w, h := range hits {
		off[w+1] = off[w] + len(h)
	}
	if off[workers] == 0 {
		return nil
	}
	out := make([]Point, off[workers])
	fanOut(workers, func(w int) {
		sn.copyHits(out[off[w]:off[w+1]], hits[w])
	})
	return out
}

// fanOut runs fn(0..workers-1) concurrently, fn(0) on the calling
// goroutine, and returns when all have finished.
func fanOut(workers int, fn func(w int)) {
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	fn(0)
	wg.Wait()
}

// matchChunk returns the positions in candidates lo..hi-1 that pass the
// filter, in candidate order. An indexed chunk sizes its scratch to the
// chunk (at most its posting-list length, 4 bytes a candidate); a full
// scan grows it from empty, since a residual scan over every row usually
// matches few of them and most match none.
func (sn *Snapshot) matchChunk(cf *colFilter, list []int32, lo, hi int) []int32 {
	if list != nil {
		out := make([]int32, 0, hi-lo)
		for _, pos := range list[lo:hi] {
			if sn.matchAt(cf, int(pos)) {
				out = append(out, pos)
			}
		}
		return out
	}
	var out []int32
	for i := lo; i < hi; i++ {
		if sn.matchAt(cf, i) {
			out = append(out, int32(i))
		}
	}
	return out
}

// copyHits copies the rows at the hit positions into dst, which has
// exactly len(hits) slots.
func (sn *Snapshot) copyHits(dst []Point, hits []int32) {
	for k, pos := range hits {
		sn.ensureRow(int(pos))
		dst[k] = sn.sorted[pos]
	}
}
