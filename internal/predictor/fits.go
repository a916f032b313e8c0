package predictor

import (
	"slices"
	"sort"
	"sync"

	"hpcadvisor/internal/dataset"
)

// group is one (application, input, SKU) group of successful measured
// points as the fits read it: the first point, for the group's metadata,
// and the node and time columns in point order.
type group struct {
	key   string
	head  *dataset.Point
	nodes []int
	times []float64
}

// appendGroupKey appends the key that orders and identifies fit groups.
func appendGroupKey(dst []byte, p *dataset.Point) []byte {
	dst = append(dst, p.AppName...)
	dst = append(dst, 0)
	dst = append(dst, p.InputDesc...)
	dst = append(dst, 0)
	return append(dst, p.SKU...)
}

// groupPoints buckets successful points into (app, input, SKU) groups,
// deterministically ordered by group key. The groups' columns share one
// allocation and head points into points.
func groupPoints(points []dataset.Point) []group {
	slot := make(map[string]int)
	var groups []group
	var counts []int
	of := make([]int32, len(points)) // group slot per point; -1 is not evidence
	var buf []byte
	prev := -1 // slot of the previous evidence point
	for i := range points {
		p := &points[i]
		if p.Failed || p.ExecTimeSec <= 0 || p.NNodes < 1 {
			of[i] = -1
			continue
		}
		// Selections arrive in canonical (alias, input, nodes) order, so a
		// group's points mostly follow each other.
		if prev >= 0 {
			if h := groups[prev].head; h.AppName == p.AppName && h.InputDesc == p.InputDesc && h.SKU == p.SKU {
				of[i] = int32(prev)
				counts[prev]++
				continue
			}
		}
		buf = appendGroupKey(buf[:0], p)
		s, ok := slot[string(buf)]
		if !ok {
			s = len(groups)
			k := string(buf)
			slot[k] = s
			groups = append(groups, group{key: k, head: p})
			counts = append(counts, 0)
		}
		of[i] = int32(s)
		counts[s]++
		prev = s
	}
	// Lay the groups' columns out back to back in one allocation each, then
	// fill them in point order.
	total := 0
	for _, c := range counts {
		total += c
	}
	nodes := make([]int, total)
	times := make([]float64, total)
	off := 0
	for s, c := range counts {
		groups[s].nodes = nodes[off : off : off+c]
		groups[s].times = times[off : off : off+c]
		off += c
	}
	for i, s := range of {
		if s >= 0 {
			g := &groups[s]
			g.nodes = append(g.nodes, points[i].NNodes)
			g.times = append(g.times, points[i].ExecTimeSec)
		}
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].key < groups[j].key })
	return groups
}

// distinctNodes returns the distinct node counts of a group, ascending.
func distinctNodes(nodes []int) []int {
	out := slices.Clone(nodes)
	slices.Sort(out)
	return slices.Compact(out)
}

// groupEval is everything the predictor derives from one group under one
// (MinPoints, MinR2): the served fit and the leave-one-out folds.
type groupEval struct {
	n      int // points the evaluation covers
	fit    GroupFit
	fitOK  bool
	tested bool
	folds  []fold
}

// evalGroup evaluates one group: the fit Fit serves and the folds Backtest
// scores.
func evalGroup(g *group, cfg Config) groupEval {
	ev := groupEval{n: len(g.nodes)}
	ev.fit, ev.fitOK = fitGroup(g, cfg)
	ev.tested, ev.folds = groupFolds(g, cfg)
	return ev
}

// fitsKey identifies a memoized group evaluation: the group and the only
// Config fields the evaluation reads.
type fitsKey struct {
	group     string
	minPoints int
	minR2     float64
}

// fitsEntry computes one group evaluation at most once.
type fitsEntry struct {
	once sync.Once
	ev   groupEval
}

// Fits memoizes group evaluations over one snapshot, so every query on the
// snapshot fits each (app, input, SKU) group once, however many filters,
// grids, regions and orders ask. An evaluation is always of the group's
// whole measured sweep in the snapshot, and serves a query only when the
// query's group has the same number of points: a query's group is a subset
// of the whole group in the same canonical order, so equal length means
// equal points. A group cut short by the query's filter (node bounds, tags)
// is evaluated afresh and not kept, so the memo holds at most one entry per
// group and fit-parameter pair.
//
// A nil *Fits, or one without a snapshot, is a throwaway memo: it keeps
// nothing and evaluates every group afresh.
type Fits struct {
	sn      *dataset.Snapshot
	mu      sync.Mutex
	entries map[fitsKey]*fitsEntry // guarded-by: mu
}

// NewFits returns an empty memo over sn; a nil sn makes a throwaway memo.
func NewFits(sn *dataset.Snapshot) *Fits {
	return &Fits{sn: sn, entries: make(map[fitsKey]*fitsEntry)}
}

// Len returns how many group evaluations the memo holds.
func (m *Fits) Len() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// testHookEval, when set, runs inside every memoized evaluation; tests use
// it to count evaluations.
var testHookEval func()

// lookup returns the memoized evaluation of g's whole group, or nil when
// the memo is a throwaway or g is cut short. Concurrent lookups of one
// group share one evaluation.
func (m *Fits) lookup(g *group, cfg Config) *groupEval {
	if m == nil || m.sn == nil {
		return nil
	}
	k := fitsKey{group: g.key, minPoints: cfg.minPoints(), minR2: cfg.minR2()}
	m.mu.Lock()
	e, ok := m.entries[k]
	if !ok {
		e = &fitsEntry{}
		m.entries[k] = e
	}
	m.mu.Unlock()
	e.once.Do(func() {
		if testHookEval != nil {
			testHookEval()
		}
		whole := wholeGroup(m.sn, g)
		e.ev = evalGroup(&whole, cfg)
	})
	if e.ev.n != len(g.nodes) {
		return nil
	}
	return &e.ev
}

// wholeGroup returns every successful point of g's group in sn.
func wholeGroup(sn *dataset.Snapshot, g *group) group {
	sel := sn.Select(dataset.Filter{AppName: g.head.AppName, InputDesc: g.head.InputDesc, SKU: g.head.SKU})
	for _, w := range groupPoints(sel) {
		if w.key == g.key {
			return w
		}
	}
	return group{key: g.key}
}

// fit returns g's served fit, or nil when g fails the evidence or quality
// gate. A memoized fit is shared and read-only.
func (m *Fits) fit(g *group, cfg Config) *GroupFit {
	if ev := m.lookup(g, cfg); ev != nil {
		if !ev.fitOK {
			return nil
		}
		return &ev.fit
	}
	if fit, ok := fitGroup(g, cfg); ok {
		return &fit
	}
	return nil
}

// folds returns g's leave-one-out folds and whether g has enough distinct
// node counts to be backtested.
func (m *Fits) folds(g *group, cfg Config) (bool, []fold) {
	if ev := m.lookup(g, cfg); ev != nil {
		return ev.tested, ev.folds
	}
	return groupFolds(g, cfg)
}
