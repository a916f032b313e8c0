package main

import "math/bits"

// hist is a log-linear latency histogram over nanoseconds: exact below
// 2^subBits ns, then 2^subBits buckets per power of two (about 0.8%
// relative width). Recording is an index computation and an increment, and
// the harness's memory stays fixed however many requests a run makes — no
// raw sample arrays. Not safe for concurrent use; each worker owns one and
// they are merged after the run.
type hist struct {
	counts [(64 - subBits) << subBits]uint32
	n      uint64
	sum    int64
	max    int64
}

const subBits = 7

func bucketOf(v int64) int {
	if v < 1<<subBits {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - subBits - 1
	return (shift+1)<<subBits + int(uint64(v)>>shift) - 1<<subBits
}

// bucketRange returns the lower bound and width of bucket i.
func bucketRange(i int) (lo, width float64) {
	if i < 1<<subBits {
		return float64(i), 1
	}
	shift := i>>subBits - 1
	mant := int64(i&(1<<subBits-1) + 1<<subBits)
	return float64(mant << shift), float64(int64(1) << shift)
}

func (h *hist) record(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
	h.sum += ns
	if ns > h.max {
		h.max = ns
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile in nanoseconds, interpolated linearly
// inside the bucket that holds it (so figures are not quantized to bucket
// edges), or 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := bucketRange(i)
			v := lo + w*(rank-cum-0.5)/float64(c)
			if v < lo {
				v = lo
			}
			if m := float64(h.max); v > m {
				v = m
			}
			return v
		}
		cum += float64(c)
	}
	return float64(h.max)
}
