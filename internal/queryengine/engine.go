// Package queryengine is the read-optimized serving layer between the
// dataset and the front ends (CLI, GUI, public API). Every advice table,
// plot set, and rendered SVG is memoized under a key combining the
// canonical filter, the requested ordering, and the store generation, so a
// repeated query is a cache hit instead of a dataset walk, and any append
// to the store invalidates exactly by changing the generation — no explicit
// flushes. A bounded LRU keeps memory finite and single-flight collapses a
// thundering herd on one cold key into a single computation.
//
// The engine is safe for concurrent use and never blocks writers: it reads
// through immutable dataset.Snapshots (see internal/dataset/snapshot.go).
package queryengine

import (
	"container/list"
	"fmt"
	"strconv"
	"sync"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/pareto"
	"hpcadvisor/internal/plot"
	"hpcadvisor/internal/predictor"
)

// Source is anything that can produce read-optimized snapshots: a
// *dataset.Store, or an adapter over dataset.Sharded's View.
type Source interface {
	Snapshot() *dataset.Snapshot
}

// DefaultCacheEntries bounds the LRU when callers pass 0: generous for
// interactive use (five plots x a handful of filters x a few generations)
// while keeping worst-case memory small.
const DefaultCacheEntries = 512

// Stats counts cache traffic. Joins on an in-flight computation count as
// hits (the work was shared, not repeated).
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Engine memoizes advice and plot queries over a snapshot source. Every
// read method takes the snapshot it reads as its first argument: a caller
// fetches it once (Snapshot) and ties everything it renders — rows, tables,
// SVGs, the stamped generation — to that one pin. Snapshot and Generation
// are the only live reads.
type Engine struct {
	src Source
	max int

	mu       sync.Mutex
	entries  map[string]*list.Element // guarded-by: mu
	lru      *list.List               // guarded-by: mu; front = most recently used
	inflight map[string]*call         // guarded-by: mu
	stats    Stats                    // guarded-by: mu
	fits     *predictor.Fits          // guarded-by: mu; group fits of generation fitsGen
	fitsGen  uint64                   // guarded-by: mu
}

type entry struct {
	key string
	val any
}

type call struct {
	done chan struct{}
	val  any
}

// New builds an engine over src with a bounded LRU of maxEntries (0 means
// DefaultCacheEntries).
func New(src Source, maxEntries int) *Engine {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheEntries
	}
	return &Engine{
		src:      src,
		max:      maxEntries,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		inflight: make(map[string]*call),
	}
}

// Snapshot returns the engine's current read view, the pin every read
// method takes.
func (e *Engine) Snapshot() *dataset.Snapshot { return e.src.Snapshot() }

// Generation returns the generation of the current read view — the value
// every cached result of that view is keyed under, and what the API layer
// folds into ETags so HTTP revalidation tracks cache invalidation exactly.
func (e *Engine) Generation() uint64 { return e.src.Snapshot().Generation() }

// Stats returns a copy of the cache counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Len returns the number of cached entries.
func (e *Engine) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.entries)
}

// testHookCompute, when set, runs inside every cache-miss computation;
// tests use it to hold a computation open and observe single-flight.
var testHookCompute func()

// get returns the cached value for key, computing it at most once across
// concurrent callers.
func (e *Engine) get(key string, compute func() any) any {
	e.mu.Lock()
	if el, ok := e.entries[key]; ok {
		e.lru.MoveToFront(el)
		v := el.Value.(*entry).val
		e.stats.Hits++
		e.mu.Unlock()
		return v
	}
	if c, ok := e.inflight[key]; ok {
		e.stats.Hits++
		e.mu.Unlock()
		<-c.done
		return c.val
	}
	c := &call{done: make(chan struct{})}
	e.inflight[key] = c
	e.stats.Misses++
	e.mu.Unlock()

	if testHookCompute != nil {
		testHookCompute()
	}
	c.val = compute()

	e.mu.Lock()
	delete(e.inflight, key)
	e.entries[key] = e.lru.PushFront(&entry{key: key, val: c.val})
	for e.lru.Len() > e.max {
		oldest := e.lru.Back()
		e.lru.Remove(oldest)
		delete(e.entries, oldest.Value.(*entry).key)
		e.stats.Evictions++
	}
	e.mu.Unlock()
	close(c.done)
	return c.val
}

// key renders a cache key: query kind, store generation, canonical filter,
// and any extra discriminator (sort order, plot name).
func key(kind string, gen uint64, c *dataset.CanonicalFilter, extra string) string {
	k := kind + "|g" + strconv.FormatUint(gen, 10) + "|" + c.Key()
	if extra != "" {
		k += "|" + extra
	}
	return k
}

func orderKey(order pareto.SortOrder) string {
	if order == pareto.ByCost {
		return "cost"
	}
	return "time"
}

// Cached memoizes an arbitrary derivation of the pinned snapshot sn under
// the engine's LRU and single-flight, keyed like every built-in kind: (kind,
// generation, canonical filter, extra). Serving layers use it to cache
// renderings the engine does not know about — e.g. the API's encoded JSON
// response bodies — with the same generation-based invalidation as advice
// and SVG. compute receives sn itself, so a cached value can never mix
// generations. External kinds are namespaced with "x:" and can never
// collide with the engine's own.
func (e *Engine) Cached(sn *dataset.Snapshot, kind string, f dataset.Filter, extra string, compute func(sn *dataset.Snapshot) any) any {
	c := f.Canonical()
	return e.get(key("x:"+kind, sn.Generation(), &c, extra), func() any { return compute(sn) })
}

// advice memoizes the Pareto front at sn; the shared cached slice must not
// be modified. Hot filters — the snapshot precomputes fronts for the top-K
// single-field filters — are a slice handoff from the snapshot; only cold
// filters pay a Select plus an on-demand front. Both paths are
// byte-identical (the equivalence suite pins them to the scan baseline), so
// the cache key does not care which one produced the value.
func (e *Engine) advice(sn *dataset.Snapshot, f dataset.Filter, order pareto.SortOrder) []dataset.Point {
	c := f.Canonical()
	v := e.get(key("advice", sn.Generation(), &c, orderKey(order)), func() any {
		if rows, ok := sn.HotAdvice(&c, order == pareto.ByCost); ok {
			return rows
		}
		return pareto.Advice(sn.Select(f), order)
	})
	return v.([]dataset.Point)
}

// Advice returns the Pareto front over the filtered snapshot in the given
// order, memoized per (filter, order, generation). The returned slice is a
// fresh copy; callers may modify it.
func (e *Engine) Advice(sn *dataset.Snapshot, f dataset.Filter, order pareto.SortOrder) []dataset.Point {
	rows := e.advice(sn, f, order)
	out := make([]dataset.Point, len(rows))
	copy(out, rows)
	return out
}

// AdviceTable returns the advice rendered exactly as the paper's Listings
// 3-4, memoized separately from Advice so repeated table requests skip even
// the formatting. Its compute layers on the memoized front, so a cold table
// after a cold Advice (the GUI does both per request) formats the cached
// rows instead of re-running the Pareto computation.
func (e *Engine) AdviceTable(sn *dataset.Snapshot, f dataset.Filter, order pareto.SortOrder) string {
	c := f.Canonical()
	v := e.get(key("advicetable", sn.Generation(), &c, orderKey(order)), func() any {
		return pareto.FormatAdviceTable(e.advice(sn, f, order))
	})
	return v.(string)
}

// PlotSet returns all five plots for the filter, computed from sn so the
// set is internally consistent, memoized per (filter, generation): every
// consumer of one (filter, generation) — PlotSet calls and all five SVG
// renders — shares a single set computation. The set is returned by value;
// its series slices are shared and read-only.
func (e *Engine) PlotSet(sn *dataset.Snapshot, f dataset.Filter) plot.Set {
	c := f.Canonical()
	v := e.get(key("plotset", sn.Generation(), &c, ""), func() any {
		return plot.BuildSet(&memoSource{sn: sn}, f)
	})
	return v.(plot.Set)
}

// SVG returns the named plot of the set rendered as SVG bytes, memoized per
// (name, filter, generation). The returned bytes are shared with the cache
// and must not be modified. Unknown names error.
func (e *Engine) SVG(sn *dataset.Snapshot, name string, f dataset.Filter) ([]byte, error) {
	c := f.Canonical()
	if _, ok := (plot.Set{}).ByName(name); !ok {
		return nil, fmt.Errorf("queryengine: unknown plot %q", name)
	}
	v := e.get(key("svg", sn.Generation(), &c, name), func() any {
		p, _ := e.PlotSet(sn, f).ByName(name)
		return plot.RenderSVG(p)
	})
	return v.([]byte), nil
}

// fitsAt returns the group-fit memo that predictions over filter f at
// snapshot sn read through. The engine keeps one memo, for the newest
// generation it has served, and replaces it when the generation rolls, as
// snapshots replace their hot fronts; it never holds more entries than the
// snapshot has groups. A filter with node bounds or tags can cut a
// group short, so it gets a throwaway (nil) memo, as does a request pinned
// to a generation the memo has moved past.
func (e *Engine) fitsAt(sn *dataset.Snapshot, f dataset.Filter) *predictor.Fits {
	if f.MinNodes > 0 || f.MaxNodes > 0 || len(f.Tags) > 0 {
		return nil
	}
	gen := sn.Generation()
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case e.fits == nil || gen > e.fitsGen:
		e.fits, e.fitsGen = predictor.NewFits(sn), gen
	case gen < e.fitsGen:
		return nil
	}
	return e.fits
}

// predictedAdvice memoizes the merged measured+predicted front at sn; the
// shared cached slice must not be modified. The key adds the predictor
// configuration: distinct grids, gates, or regions cache independently, and
// any append to the store invalidates by generation like every other kind.
func (e *Engine) predictedAdvice(sn *dataset.Snapshot, f dataset.Filter, order pareto.SortOrder, cfg predictor.Config) []predictor.Row {
	c := f.Canonical()
	v := e.get(key("predadvice", sn.Generation(), &c, orderKey(order)+"|"+cfg.Key()), func() any {
		return predictor.Advice(e.fitsAt(sn, f), sn.Select(f), cfg, order)
	})
	return v.([]predictor.Row)
}

// PredictedAdvice returns the merged measured+predicted Pareto front over
// the filtered snapshot, memoized per (filter, order, config, generation).
// The returned slice is a fresh copy; callers may modify it.
func (e *Engine) PredictedAdvice(sn *dataset.Snapshot, f dataset.Filter, order pareto.SortOrder, cfg predictor.Config) []predictor.Row {
	rows := e.predictedAdvice(sn, f, order, cfg)
	out := make([]predictor.Row, len(rows))
	copy(out, rows)
	return out
}

// PredictedAdviceTable renders the merged advice with its Source markings,
// memoized separately so repeated table requests skip the formatting; its
// compute layers on the memoized rows.
func (e *Engine) PredictedAdviceTable(sn *dataset.Snapshot, f dataset.Filter, order pareto.SortOrder, cfg predictor.Config) string {
	c := f.Canonical()
	v := e.get(key("predtable", sn.Generation(), &c, orderKey(order)+"|"+cfg.Key()), func() any {
		return predictor.FormatAdviceTable(e.predictedAdvice(sn, f, order, cfg))
	})
	return v.(string)
}

// Backtest runs the predictor's leave-one-out backtest over the filtered
// snapshot, memoized per (filter, fit parameters, generation). The report
// reads only the fit parameters, so grids and regions share one entry.
func (e *Engine) Backtest(sn *dataset.Snapshot, f dataset.Filter, cfg predictor.Config) predictor.BacktestReport {
	c := f.Canonical()
	v := e.get(key("backtest", sn.Generation(), &c, cfg.FitKey()), func() any {
		return predictor.Backtest(e.fitsAt(sn, f), sn.Select(f), cfg)
	})
	return v.(predictor.BacktestReport)
}

// PredictedPlotSet returns the plot set with predicted overlays on the
// exectime and cost plots, memoized per (filter, config, generation): the
// measured set (shared with the plain PlotSet kind) plus the predictor's
// fitted-curve, interval-band, and predicted-cost series. The set is
// returned by value; its series slices are shared and read-only.
func (e *Engine) PredictedPlotSet(sn *dataset.Snapshot, f dataset.Filter, cfg predictor.Config) plot.Set {
	c := f.Canonical()
	v := e.get(key("predplots", sn.Generation(), &c, cfg.Key()), func() any {
		return predictor.Overlay(e.fitsAt(sn, f), e.PlotSet(sn, f), sn.Select(f), cfg)
	})
	return v.(plot.Set)
}

// PredictedSVG returns the named overlaid plot rendered as SVG bytes,
// memoized per (name, filter, config, generation). The returned bytes are
// shared with the cache and must not be modified. Unknown names error.
func (e *Engine) PredictedSVG(sn *dataset.Snapshot, name string, f dataset.Filter, cfg predictor.Config) ([]byte, error) {
	c := f.Canonical()
	if _, ok := (plot.Set{}).ByName(name); !ok {
		return nil, fmt.Errorf("queryengine: unknown plot %q", name)
	}
	v := e.get(key("predsvg", sn.Generation(), &c, name+"|"+cfg.Key()), func() any {
		p, _ := e.PredictedPlotSet(sn, f, cfg).ByName(name)
		return plot.RenderSVG(p)
	})
	return v.([]byte), nil
}

// memoSource caches the Select and GroupSeries of a single snapshot while
// one plot set is built: the five builders share one Select and one
// grouping instead of five of each. It is used by exactly one goroutine
// during one BuildSet call.
type memoSource struct {
	sn        *dataset.Snapshot
	selected  []dataset.Point
	selectOK  bool
	grouped   map[dataset.SeriesKey][]dataset.Point
	groupedOK bool
}

func (m *memoSource) Select(f dataset.Filter) []dataset.Point {
	if !m.selectOK {
		m.selected = m.sn.Select(f)
		m.selectOK = true
	}
	return m.selected
}

func (m *memoSource) GroupSeries(f dataset.Filter) map[dataset.SeriesKey][]dataset.Point {
	if !m.groupedOK {
		m.grouped = m.sn.GroupSeries(f)
		m.groupedOK = true
	}
	return m.grouped
}
