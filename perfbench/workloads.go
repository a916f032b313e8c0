package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"hpcadvisor/internal/core"
	"hpcadvisor/internal/service"
)

// workloads are the benchmark's named traffic mixes; see README.md for
// why each exists and which layers it loads.
var workloads = []string{"hot-read", "cold-query", "live-collect"}

// run is the state shared by every pass of one benchmark run.
type run struct {
	seed  int64
	fx    *fixture
	ref   *refSweep // the durable no-reader sweep (live-collect, traced runs)
	work  string    // scratch directory inside the checkout
	tally *tally
	spans *spanLog
	// probe times one set-up of a read workload in a fresh process.
	probe func(workload string) (float64, error)
}

// passResult is what one pass of a workload measured.
type passResult struct {
	e2e    map[string]float64 // end-to-end metrics
	layers map[string]float64 // per-layer metrics (traced passes)
}

// procSample is the process-wide counters a pass is charged by difference.
type procSample struct {
	cpu     time.Duration
	alloc   uint64
	gcPause uint64
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		gcPause: ms.PauseTotalNs,
	}
}

// procLayers charges the process counters between a and b to ops
// operations.
func procLayers(m map[string]float64, a, b procSample, ops float64) {
	m["process.cpu_ms_per_op"] = float64(b.cpu-a.cpu) / 1e6 / ops
	m["go.alloc_kb_per_op"] = float64(b.alloc-a.alloc) / 1024 / ops
	m["go.gc_pause_ms"] = float64(b.gcPause-a.gcPause) / 1e6
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// quantileOf returns the q-quantile of xs, interpolating linearly between
// the two nearest values, or 0 for no values.
func quantileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// readMix is a read workload's request pool, its class schedule, the
// priming pass, and the pool entries whose bodies the oracles check after
// the run.
type readMix struct {
	pool    []request
	byClass [nClasses][]int // pool entries of each class
	// schedule is a shuffled list of classes, 100 slots in the workload's
	// shares. Each load generator walks it in order and draws the entry
	// within the class at random, so every run sends the classes in exactly
	// the same proportions whatever the seed.
	schedule []int
	prime    []request
	sample   []int
}

func newReadMix(pool []request, shares map[int]int, r *rand.Rand) *readMix {
	m := &readMix{pool: pool}
	for i := range pool {
		pool[i].id = i
		m.byClass[pool[i].class] = append(m.byClass[pool[i].class], i)
	}
	for c := 0; c < nClasses; c++ {
		for k := 0; k < shares[c]; k++ {
			m.schedule = append(m.schedule, c)
		}
	}
	r.Shuffle(len(m.schedule), func(i, j int) { m.schedule[i], m.schedule[j] = m.schedule[j], m.schedule[i] })
	return m
}

// draw picks a load generator's i-th request; revalidate asks for a 304.
func (m *readMix) draw(r *rand.Rand, i int) (req *request, revalidate bool) {
	c := m.schedule[i%len(m.schedule)]
	if c == clsRevalidate {
		ids := m.byClass[clsAdvice]
		return &m.pool[ids[r.Intn(len(ids))]], true
	}
	ids := m.byClass[c]
	return &m.pool[ids[r.Intn(len(ids))]], false
}

// hotReadMix: dashboards and GUI pages polling advice. A third of requests
// revalidate with the current ETag, 3% read /api/v1/dataset, the rest
// fetch one of the 30 hot advice queries.
func hotReadMix(fx *fixture, seed int64) *readMix {
	r := randFor(seed)
	set := hotAdviceSet(fx, r)
	pool := append(set, request{class: clsDataset, path: "/api/v1/dataset"})
	m := newReadMix(pool, map[int]int{clsAdvice: 64, clsRevalidate: 33, clsDataset: 3}, r)
	reval := pool[0]
	reval.class = clsRevalidate
	m.prime = []request{pool[0], reval, pool[len(set)]}
	for i := range pool {
		m.sample = append(m.sample, i)
	}
	return m
}

// coldQueryMix: users asking about their own (app, input), drawn from a
// 16,384-entry pool. The oracle sample is 40 advice entries, 6 plots, 4
// predicted and 2 app-wide predicted requests, picked by the seed.
func coldQueryMix(fx *fixture, seed int64) *readMix {
	r := randFor(seed)
	m := newReadMix(coldPool(fx, r), map[int]int{
		clsColdAdvice:   coldAdvicePct,
		clsPlot:         coldPlotPct,
		clsPredicted:    coldPredictedPct,
		clsPredictedApp: coldPredictedAppPct,
	}, r)
	want := map[int]int{clsColdAdvice: 40, clsPlot: 6, clsPredicted: 4, clsPredictedApp: 2}
	for c := clsColdAdvice; c <= clsPredictedApp; c++ {
		m.prime = append(m.prime, m.pool[m.byClass[c][0]])
	}
	// Prime advice with an app-wide query over every VM type: it touches
	// every row chunk of the mapped snapshot, so set-up always pays the
	// full lazy row decode, whichever seed drew the pool.
	for _, i := range m.byClass[clsColdAdvice] {
		if f := m.pool[i].filter; f.InputDesc == "" && f.SKU == "" {
			m.prime[0] = m.pool[i]
			break
		}
	}
	for _, i := range r.Perm(len(m.pool)) {
		if c := m.pool[i].class; want[c] > 0 {
			want[c]--
			m.sample = append(m.sample, i)
		}
	}
	return m
}

func mixFor(name string, fx *fixture, seed int64) *readMix {
	if name == "hot-read" {
		return hotReadMix(fx, seed)
	}
	return coldQueryMix(fx, seed)
}

// setupOnce times one set-up of a read workload and tears it down.
func setupOnce(fx *fixture, seed int64, name string) (float64, error) {
	e, d, err := openEnv(fx.Store, mixFor(name, fx, seed).prime, nil, nil)
	if err != nil {
		return 0, err
	}
	return d.Seconds(), e.stop()
}

// warmup is how long a read pass runs before it starts timing.
const warmup = time.Second

// readPass runs hot-read or cold-query: probes set-ups timed in fresh
// processes, one more set-up here that serves the pass, a closed loop for
// dur, and the correctness checks. setup_s is the median of all set-ups.
func readPass(rn *run, name string, dur time.Duration, traced bool, probes int) (*passResult, error) {
	mix := mixFor(name, rn.fx, rn.seed)
	var setupS []float64
	for i := 0; i < probes; i++ {
		s, err := rn.probe(name)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, s)
	}
	var tr *tracer
	if traced {
		tr = newTracer(rn.spans, loadClients)
	}
	var ot openTimes
	runtime.GC()
	e, d, err := openEnv(rn.fx.Store, mix.prime, tr, &ot)
	if err != nil {
		return nil, err
	}
	defer e.stop()
	setupS = append(setupS, d.Seconds())

	v := &verifier{etag: e.etag, table: newBodyTable(len(mix.pool), mix.sample), tally: rn.tally}
	// Warm up untimed, on another request stream: the first second of a
	// pass runs slow on every run (first GC cycles, connections, stacks).
	closedLoop(e, nil, warmup, ^rn.seed, mix, v)
	var mBefore map[string]float64
	if traced {
		c := newClient(e.base, 0)
		mBefore, err = scrapeMetrics(c)
		c.close()
		if err != nil {
			return nil, err
		}
	}
	p0 := sampleProc()
	ps := closedLoop(e, tr, dur, rn.seed, mix, v)
	p1 := sampleProc()
	ok := float64(ps.ok())
	if ok == 0 {
		return nil, fmt.Errorf("%s: no request succeeded", name)
	}
	rps, p50, p99 := ps.quietWindows()
	res := &passResult{e2e: map[string]float64{
		"setup_s":        median(setupS),
		"throughput_rps": rps,
		"latency_p50_ms": p50 / 1e6,
		"latency_p99_ms": p99 / 1e6,
		"peak_rss_mb":    peakRSSMB(),
	}}
	fmt.Fprintf(os.Stderr, "%s: set-ups %.4g s\n", name, setupS)
	fmt.Fprintf(os.Stderr, "%s: %d requests in %.2fs (per class:%s); per second:", name, ps.ok(), ps.elapsed, classCounts(ps))
	for i := range ps.windows {
		fmt.Fprintf(os.Stderr, " %d/%.3gms", ps.windows[i].n, ps.windows[i].quantile(0.99)/1e6)
	}
	fmt.Fprintln(os.Stderr)

	if traced {
		c := newClient(e.base, 0)
		mAfter, err := scrapeMetrics(c)
		c.close()
		if err != nil {
			return nil, err
		}
		res.layers = readLayers(ps, &ot, mBefore, mAfter, p0, p1)
		fmt.Fprintf(os.Stderr, "%s: share of handler time per class:%s\n", name, classShares(ps))
		if name == "cold-query" {
			wide, err := datasetWidePredicted(e, tr)
			if err != nil {
				return nil, err
			}
			res.layers["predictor.dataset_wide_ms"] = wide
		}
	}
	if err := checkRead(rn, e, mix, v.table); err != nil {
		return nil, err
	}
	return res, nil
}

func classCounts(ps *passStats) string {
	s := ""
	for c, n := range ps.n {
		if n > 0 {
			s += fmt.Sprintf(" %s=%d", classNames[c], n)
		}
	}
	return s
}

// classShares renders each class's share of a traced pass's handler time.
func classShares(ps *passStats) string {
	var total int64
	for c := range ps.handler {
		total += ps.handler[c].sum
	}
	s := ""
	for c := range ps.handler {
		if ps.handler[c].n > 0 {
			s += fmt.Sprintf(" %s=%.1f%%", classNames[c], 100*float64(ps.handler[c].sum)/float64(total))
		}
	}
	return s
}

// datasetWidePredicted times one dataset-wide predicted-advice request —
// the same fit kernel as the app-wide class, over every app at once. It
// would swamp a two-connection closed loop, so it runs once, after it.
func datasetWidePredicted(e *env, tr *tracer) (float64, error) {
	c := newClient(e.base, 0)
	defer c.close()
	r, err := c.do("/api/v1/predicted-advice?grid=5,10,20,40", "", tr, clsPredictedApp, time.Time{})
	if err != nil {
		return 0, err
	}
	if r.status != 200 {
		return 0, fmt.Errorf("dataset-wide predicted advice: status %d", r.status)
	}
	return float64(r.handler) / 1e6, nil
}

// readLayers derives a traced read pass's per-layer metrics.
func readLayers(ps *passStats, ot *openTimes, before, after map[string]float64, p0, p1 procSample) map[string]float64 {
	delta := func(k string) float64 { return after[k] - before[k] }
	ops := float64(ps.ok())
	var all, pred hist
	for c := range ps.handler {
		all.merge(&ps.handler[c])
	}
	pred.merge(&ps.handler[clsPredicted])
	pred.merge(&ps.handler[clsPredictedApp])
	advice200 := float64(ps.n[clsAdvice] + ps.n[clsColdAdvice])
	// The after-scrape counts itself before it renders.
	requests := delta("hpcadvisor_http_requests_total") - 1
	hits, misses := delta("hpcadvisor_cache_hits_total"), delta("hpcadvisor_cache_misses_total")
	m := map[string]float64{
		"http.self_us_p50":             ps.self.quantile(0.50) / 1e3,
		"http.self_us_p99":             ps.self.quantile(0.99) / 1e3,
		"api.handler_us_p50":           all.quantile(0.50) / 1e3,
		"api.handler_us_p99":           all.quantile(0.99) / 1e3,
		"api.not_modified_share":       ratio(delta("hpcadvisor_http_not_modified_total"), requests),
		"api.resp_bytes_per_op":        float64(ps.bytes) / ops,
		"api.body_cache_hit_ratio":     ratio(delta("hpcadvisor_http_body_cache_hits_total"), advice200),
		"queryengine.hit_ratio":        ratio(hits, hits+misses),
		"queryengine.evictions_per_op": delta("hpcadvisor_cache_evictions_total") / ops,
		"dataset.advice_ms_p50":        ps.handler[clsColdAdvice].quantile(0.50) / 1e6,
		"dataset.advice_ms_p99":        ps.handler[clsColdAdvice].quantile(0.99) / 1e6,
		"dataset.first_select_ms":      float64(ot.firstAdvice) / 1e6,
		"plot.svg_ms_p50":              ps.handler[clsPlot].quantile(0.50) / 1e6,
		"plot.svg_ms_p99":              ps.handler[clsPlot].quantile(0.99) / 1e6,
		"predictor.predicted_ms_p50":   pred.quantile(0.50) / 1e6,
		"predictor.predicted_ms_p99":   pred.quantile(0.99) / 1e6,
		"storage.open_ms":              float64(ot.open) / 1e6,
		"storage.first_snapshot_ms":    float64(ot.snapshot) / 1e6,
	}
	procLayers(m, p0, p1, ops)
	return m
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// checkRead runs a read pass's correctness checks after its loop: the
// advice oracle over the sampled entries, the dataset summary, and the
// predicted-advice and plot bodies against a fresh advisor.
func checkRead(rn *run, e *env, mix *readMix, t *bodyTable) error {
	var fresh *service.Service
	for _, id := range mix.sample {
		req := &mix.pool[id]
		body, err := sampledBody(e, t, req)
		if err != nil {
			rn.tally.fail("sample %s: %v", req.path, err)
			continue
		}
		switch req.class {
		case clsAdvice, clsColdAdvice:
			rn.tally.check("advice oracle", checkAdvice(e.adv.Store, e.gen, req, body))
		case clsDataset:
			rn.tally.check("dataset summary", checkDatasetBody(body, e.gen, rn.fx.Points))
		case clsPlot, clsPredicted, clsPredictedApp:
			if fresh == nil {
				adv := core.New("perfbench")
				if err := adv.OpenStore(rn.fx.Store); err != nil {
					return err
				}
				defer adv.CloseStore()
				fresh = service.NewWithRegion(adv, region)
			}
			rn.tally.check("fresh advisor", checkFresh(fresh, req, body))
		}
	}
	return nil
}

func checkDatasetBody(body []byte, gen uint64, points int) error {
	var info struct {
		Generation uint64 `json:"generation"`
		Points     int    `json:"points"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		return err
	}
	if info.Generation != gen || info.Points != points {
		return fmt.Errorf("dataset reports generation %d with %d points, want %d with %d", info.Generation, info.Points, gen, points)
	}
	return nil
}
