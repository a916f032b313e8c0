package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/pareto"
	"hpcadvisor/internal/plot"
)

// Request classes. Every request of a workload's mix belongs to one; the
// traced run reports server time per class.
const (
	clsAdvice       = iota // advice answered from the hot path (hot-read)
	clsRevalidate          // advice revalidated with the current ETag (304)
	clsDataset             // /api/v1/dataset
	clsColdAdvice          // advice for one (app, input) with SKU, node bounds, sort
	clsPlot                // one of the five SVG plots
	clsPredicted           // predicted advice over an unmeasured node grid
	clsPredictedApp        // the same, app-wide
	clsPoll                // live-collect's poll of the hot advice set
	nClasses
)

var classNames = [nClasses]string{"advice", "revalidate", "dataset", "cold-advice", "plot", "predicted", "predicted-app", "poll"}

// request is one entry of a workload's request pool.
type request struct {
	id    int // index in the pool; keys the identical-bytes check
	class int
	path  string
	// Advice requests carry their filter and order for the oracle.
	filter dataset.Filter
	order  pareto.SortOrder
}

func adviceRequest(class int, f dataset.Filter, order pareto.SortOrder) request {
	q := url.Values{}
	set := func(k, v string) {
		if v != "" {
			q.Set(k, v)
		}
	}
	set("app", f.AppName)
	set("sku", f.SKU)
	set("input", f.InputDesc)
	if f.MinNodes > 0 {
		q.Set("minnodes", strconv.Itoa(f.MinNodes))
	}
	if f.MaxNodes > 0 {
		q.Set("maxnodes", strconv.Itoa(f.MaxNodes))
	}
	if order == pareto.ByCost {
		q.Set("sort", "cost")
	}
	path := "/api/v1/advice"
	if e := q.Encode(); e != "" {
		path += "?" + e
	}
	return request{class: class, path: path, filter: f, order: order}
}

// hotAdviceSet is hot-read's advice queries: every single-field filter
// (none, each app, each SKU, two inputs) in both sort orders — 30 queries
// on the full fixture, within the snapshot's 24 hot fronts plus the API's
// 512-entry body cache. live-collect polls the same set.
func hotAdviceSet(fx *fixture, r *rand.Rand) []request {
	var fs []dataset.Filter
	fs = append(fs, dataset.Filter{})
	for _, a := range fx.Apps {
		fs = append(fs, dataset.Filter{AppName: a.Name})
	}
	for _, s := range fx.SKUs {
		fs = append(fs, dataset.Filter{SKU: s.Alias})
	}
	for i := 0; i < 2; i++ {
		a := fx.Apps[r.Intn(len(fx.Apps))]
		fs = append(fs, dataset.Filter{InputDesc: a.Descs[r.Intn(len(a.Descs))]})
	}
	var out []request
	for _, f := range fs {
		for _, o := range []pareto.SortOrder{pareto.ByTime, pareto.ByCost} {
			out = append(out, adviceRequest(clsAdvice, f, o))
		}
	}
	return out
}

// Unmeasured node counts predictions are asked for: none is in any sweep.
var predictGrid = []int{5, 7, 10, 14, 20, 28, 40, 48, 64}

// coldPoolSize bounds cold-query's distinct requests: far more than the
// engine's 512-entry LRU and the API's 512-entry body cache — a run of a
// few thousand requests repeats about one in ten — yet a fixed table, so
// the identical-bytes check keeps fixed memory. With a smaller pool the
// repeats, answered from the caches, become a large and run-dependent
// share, and the median lands between cached and uncached answers.
const coldPoolSize = 16384

// Class shares of cold-query's requests, in percent. Cold advice is the
// majority, so the median falls inside it; app-wide predicted advice is
// the slowest class and holds more than 1% of requests, so the p99 falls
// inside it too.
const (
	coldAdvicePct       = 72
	coldPlotPct         = 15
	coldPredictedPct    = 10
	coldPredictedAppPct = 3
)

// coldPool draws cold-query's request pool: users asking about their own
// (app, input) — advice with SKU, node bounds and sort, the five plots, and
// predicted advice over unmeasured grids — and, for a few, the whole app.
func coldPool(fx *fixture, r *rand.Rand) []request {
	pool := make([]request, 0, coldPoolSize)
	nodes := fx.Nodes
	for len(pool) < coldPoolSize {
		a := fx.Apps[r.Intn(len(fx.Apps))]
		f := dataset.Filter{AppName: a.Name, InputDesc: a.Descs[r.Intn(len(a.Descs))]}
		order := pareto.ByTime
		if r.Intn(2) == 1 {
			order = pareto.ByCost
		}
		var req request
		switch k := r.Intn(100); {
		case k < coldAdvicePct:
			if r.Intn(10) == 0 {
				f.InputDesc = "" // app-wide
			}
			if r.Intn(2) == 0 {
				f.SKU = fx.SKUs[r.Intn(len(fx.SKUs))].Alias
			}
			lo := r.Intn(len(nodes))
			hi := lo + r.Intn(len(nodes)-lo)
			if r.Intn(3) > 0 {
				f.MinNodes = nodes[lo]
			}
			if r.Intn(3) > 0 {
				f.MaxNodes = nodes[hi]
			}
			req = adviceRequest(clsColdAdvice, f, order)
		case k < coldAdvicePct+coldPlotPct:
			if r.Intn(4) == 0 {
				f.SKU = fx.SKUs[r.Intn(len(fx.SKUs))].Alias
			}
			req = request{class: clsPlot, path: "/api/v1/plots/" + plot.SetNames[r.Intn(len(plot.SetNames))] + ".svg?" + filterQuery(f).Encode()}
		default:
			class := clsPredicted
			if k >= coldAdvicePct+coldPlotPct+coldPredictedPct {
				class = clsPredictedApp
				f.InputDesc = ""
			}
			q := filterQuery(f)
			q.Set("grid", drawGrid(r))
			if order == pareto.ByCost {
				q.Set("sort", "cost")
			}
			req = request{class: class, path: "/api/v1/predicted-advice?" + q.Encode()}
		}
		req.id = len(pool)
		pool = append(pool, req)
	}
	return pool
}

func filterQuery(f dataset.Filter) url.Values {
	q := url.Values{}
	q.Set("app", f.AppName)
	if f.InputDesc != "" {
		q.Set("input", f.InputDesc)
	}
	if f.SKU != "" {
		q.Set("sku", f.SKU)
	}
	return q
}

// drawGrid picks 2 to 4 distinct unmeasured node counts, ascending.
func drawGrid(r *rand.Rand) string {
	n := 2 + r.Intn(3)
	picked := r.Perm(len(predictGrid))[:n]
	var parts []string
	for i, g := range predictGrid {
		for _, p := range picked {
			if p == i {
				parts = append(parts, strconv.Itoa(g))
			}
		}
	}
	return strings.Join(parts, ",")
}

// bodyTable is the identical-bytes check: the first body seen for each
// pool entry within one generation fixes its hash, and every later body
// for the entry must match. It also keeps copies of the bodies of a
// seeded sample of entries for the oracle checks after the run.
type bodyTable struct {
	seed   maphash.Seed
	hashes []atomic.Uint64
	mu     sync.Mutex
	sample map[int][]byte // guarded-by: mu; entry -> first body (nil until seen)
}

func newBodyTable(n int, sample []int) *bodyTable {
	t := &bodyTable{seed: maphash.MakeSeed(), hashes: make([]atomic.Uint64, n), sample: map[int][]byte{}}
	for _, id := range sample {
		t.sample[id] = nil
	}
	return t
}

// observe checks body against the entry's earlier bodies; false means the
// bytes differ from an earlier response in the same generation.
func (t *bodyTable) observe(id int, body []byte) bool {
	h := maphash.Bytes(t.seed, body) | 1
	slot := &t.hashes[id]
	if old := slot.Load(); old != 0 {
		return old == h
	}
	if !slot.CompareAndSwap(0, h) {
		return slot.Load() == h
	}
	t.mu.Lock()
	if b, ok := t.sample[id]; ok && b == nil {
		t.sample[id] = append([]byte(nil), body...)
	}
	t.mu.Unlock()
	return true
}

// tally counts a run's operations and failures; safe for concurrent use.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	errs      []string // guarded-by: mu; the first few failures, for stderr
}

func (t *tally) ok() { t.attempted.Add(1) }

func (t *tally) fail(format string, args ...any) {
	t.attempted.Add(1)
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.errs) < 8 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// check records one correctness check: err == nil passes.
func (t *tally) check(what string, err error) {
	if err != nil {
		t.fail("%s: %v", what, err)
		return
	}
	t.ok()
}

// client is one load-generator connection: a keep-alive transport limited
// to a single connection, so a closed loop of n clients holds exactly n
// connections.
type client struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer
	slot int // traced runs: this client's handler-time slot
	reqs map[reqKey]*http.Request
}

// reqKey names a reusable request: its path and If-None-Match value.
type reqKey struct{ path, ifNoneMatch string }

// maxCachedRequests bounds the requests a client keeps for reuse, so the
// load generator's own allocations stay small next to the server's:
// hot-read's 61 distinct requests fit, cold-query's pool mostly does not.
const maxCachedRequests = 256

func newClient(base string, slot int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, slot: slot, reqs: map[reqKey]*http.Request{}}
}

// request returns a GET for path, reusing an earlier one when it can. A
// request is reusable once its response body is closed.
func (c *client) request(path, ifNoneMatch string) (*http.Request, error) {
	k := reqKey{path, ifNoneMatch}
	if req, ok := c.reqs[k]; ok {
		return req, nil
	}
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	if len(c.reqs) < maxCachedRequests {
		c.reqs[k] = req
	}
	return req, nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// response is one completed request. body aliases the client's buffer and
// is valid until the client's next request.
type response struct {
	status int
	etag   string
	body   []byte
	rtt    time.Duration
	// handler is the server-side handler time (traced runs only).
	handler time.Duration
}

// do sends one GET, timing it from start (for the open loop, the time it
// was due) to the last body byte.
func (c *client) do(path, ifNoneMatch string, tr *tracer, class int, start time.Time) (response, error) {
	req, err := c.request(path, ifNoneMatch)
	if err != nil {
		return response{}, err
	}
	var id uint64
	if tr != nil {
		id = tr.nextID()
		req.Header.Set(hdrSlot, strconv.Itoa(c.slot))
		req.Header.Set(hdrReq, strconv.FormatUint(id, 10))
	}
	sent := now()
	if start.IsZero() {
		start = sent
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return response{}, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	end := now()
	if err != nil {
		return response{}, err
	}
	out := response{status: resp.StatusCode, etag: resp.Header.Get("ETag"), body: c.buf.Bytes(), rtt: end.Sub(start)}
	if tr != nil {
		out.handler = tr.handlerTime(c.slot, id)
		tr.spans.add(id, 0, classNames[class], sent, end.Sub(sent))
	}
	return out, nil
}

// yield gives the server goroutines a turn while a client spins.
func yield() { runtime.Gosched() }
