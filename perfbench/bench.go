package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"hpcadvisor/internal/api"
	"hpcadvisor/internal/cli"
	"hpcadvisor/internal/config"
	"hpcadvisor/internal/core"
	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/pareto"
	"hpcadvisor/internal/service"
	"hpcadvisor/internal/storage"
)

// env is the program serving one opened store on a loopback listener,
// built from the public constructors the `serve` command uses.
type env struct {
	adv  *core.Advisor
	base string
	etag string // current ETag after priming
	gen  uint64
	stop func() error
}

// openTimes are the traced spans of a cold open.
type openTimes struct {
	open, snapshot time.Duration
	firstAdvice    time.Duration // handler time of the priming cold-advice request
}

// openEnv opens the store at dir, serves it, and answers the priming pass:
// one request of each class in prime. The returned duration is the set-up
// time, from the open until the priming pass was answered. With a tracer,
// the open runs as the same steps Advisor.OpenStore takes, each timed.
func openEnv(dir string, prime []request, tr *tracer, ot *openTimes) (*env, time.Duration, error) {
	t0 := now()
	adv := core.New("perfbench")
	if tr == nil {
		if err := adv.OpenStore(dir); err != nil {
			return nil, 0, err
		}
	} else {
		root := tr.nextID()
		s := now()
		st, b, err := storage.Open(dir)
		if err != nil {
			return nil, 0, err
		}
		ot.open = now().Sub(s)
		tr.spans.add(tr.nextID(), root, "storage.Open", s, ot.open)
		s = now()
		st.Snapshot()
		ot.snapshot = now().Sub(s)
		tr.spans.add(tr.nextID(), root, "dataset.Store.Snapshot", s, ot.snapshot)
		adv.SetStore(st)
		adv.Backend = b
		defer func() { tr.spans.add(root, 0, "setup", t0, now().Sub(t0)) }()
	}
	e := &env{adv: adv}
	var h http.Handler = cli.ServeMux(adv, &config.Config{Subscription: "perfbench", Region: region})
	if tr != nil {
		h = &traceHandler{next: h, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		adv.CloseStore()
		return nil, 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- api.Serve(ctx, ln, h) }()
	e.base = "http://" + ln.Addr().String()
	e.stop = func() error {
		cancel()
		err := <-done
		if cerr := adv.CloseStore(); err == nil {
			err = cerr
		}
		return err
	}
	c := newClient(e.base, 0)
	defer c.close()
	for i := range prime {
		req := &prime[i]
		inm := ""
		if req.class == clsRevalidate {
			inm = e.etag
		}
		r, err := c.do(req.path, inm, tr, req.class, time.Time{})
		if err == nil && r.status != wantStatus(req.class) {
			err = fmt.Errorf("status %d: %.200s", r.status, r.body)
		}
		if err != nil {
			e.stop()
			return nil, 0, fmt.Errorf("priming %s: %w", req.path, err)
		}
		if e.etag == "" {
			e.etag = r.etag
		}
		if ot != nil && req.class == clsColdAdvice {
			ot.firstAdvice = r.handler
		}
	}
	setup := now().Sub(t0)
	e.gen, err = parseETag(e.etag)
	if err != nil {
		e.stop()
		return nil, 0, err
	}
	return e, setup, nil
}

func wantStatus(class int) int {
	if class == clsRevalidate {
		return http.StatusNotModified
	}
	return http.StatusOK
}

// parseETag reads the generation out of an ETag `"g<gen>"`.
func parseETag(tag string) (uint64, error) {
	s, ok := strings.CutPrefix(tag, `"g`)
	if s, ok2 := strings.CutSuffix(s, `"`); ok && ok2 {
		return strconv.ParseUint(s, 10, 64)
	}
	return 0, fmt.Errorf("malformed ETag %q", tag)
}

// passStats are one pass's client-side figures. Each load-generator
// goroutine fills its own and they are merged after the pass.
type passStats struct {
	lat     hist // every successful request, end to end
	handler [nClasses]hist
	self    hist // round trip minus handler time (traced)
	n       [nClasses]int64
	bytes   int64
	late    time.Duration // open loop: the most the generator fell behind
	elapsed float64       // seconds the pass took
	// windows splits a closed loop's requests by the whole second of the
	// pass they completed in; requests completing after the deadline are
	// in no window.
	windows []hist
}

func (p *passStats) record(class int, r *response) {
	p.lat.record(int64(r.rtt))
	p.n[class]++
	p.bytes += int64(len(r.body))
	if r.handler > 0 {
		p.handler[class].record(int64(r.handler))
		p.self.record(int64(r.rtt - r.handler))
	}
}

func (p *passStats) merge(o *passStats) {
	p.lat.merge(&o.lat)
	for i := range p.handler {
		p.handler[i].merge(&o.handler[i])
		p.n[i] += o.n[i]
	}
	p.self.merge(&o.self)
	p.bytes += o.bytes
	if o.late > p.late {
		p.late = o.late
	}
	if p.windows == nil && o.windows != nil {
		p.windows = make([]hist, len(o.windows))
	}
	for i := range o.windows {
		p.windows[i].merge(&o.windows[i])
	}
}

// quietWindows returns a closed loop's figures over its quieter seconds:
// the upper quartile over the pass's one-second windows of the completed
// requests per second, and the lower quartile of each window's median and
// 99th-percentile latency. The machine is shared, and another process's
// burst only ever slows a second — its µs-scale tail most of all, since
// the loop keeps both cores busy — so the quieter quarter of a run is what
// the program does, and it moves far less from run to run than whole-pass
// figures or medians over windows.
func (p *passStats) quietWindows() (rps, p50, p99 float64) {
	var counts, mids, tails []float64
	for i := range p.windows {
		counts = append(counts, float64(p.windows[i].n))
		mids = append(mids, p.windows[i].quantile(0.50))
		tails = append(tails, p.windows[i].quantile(0.99))
	}
	return quantileOf(counts, 0.75), quantileOf(mids, 0.25), quantileOf(tails, 0.25)
}

func (p *passStats) ok() int64 {
	var n int64
	for _, c := range p.n {
		n += c
	}
	return n
}

// verifier checks responses at one fixed generation.
type verifier struct {
	etag  string
	table *bodyTable
	tally *tally
}

// verify checks one response; false means it failed (and was counted).
func (v *verifier) verify(req *request, revalidate bool, r *response) bool {
	switch {
	case revalidate && (r.status != http.StatusNotModified || len(r.body) != 0):
		v.tally.fail("%s revalidation: status %d, %d body bytes", req.path, r.status, len(r.body))
	case !revalidate && r.status != http.StatusOK:
		v.tally.fail("%s: status %d: %.200s", req.path, r.status, r.body)
	case r.etag != v.etag:
		v.tally.fail("%s: ETag %s, want %s", req.path, r.etag, v.etag)
	case !revalidate && !v.table.observe(req.id, r.body):
		v.tally.fail("%s: body differs from an earlier response in the same generation", req.path)
	default:
		v.tally.ok()
		return true
	}
	return false
}

// loadClients is how many connections (and load-generator goroutines) a
// closed loop uses: the machine's two cores.
const loadClients = 2

// closedLoop runs loadClients clients for dur, each sending its next
// request as soon as the previous one completes.
func closedLoop(e *env, tr *tracer, dur time.Duration, seed int64, mix *readMix, v *verifier) *passStats {
	start := now()
	deadline := start.Add(dur)
	parts := make([]*passStats, loadClients)
	var wg sync.WaitGroup
	for w := 0; w < loadClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient(e.base, w)
			defer c.close()
			r := workerRand(seed, w)
			st := &passStats{windows: make([]hist, int(dur/time.Second))}
			parts[w] = st
			for i := 0; now().Before(deadline); i++ {
				req, reval := mix.draw(r, i)
				class, inm := req.class, ""
				if reval {
					class, inm = clsRevalidate, e.etag
				}
				resp, err := c.do(req.path, inm, tr, class, time.Time{})
				if err != nil {
					v.tally.fail("%s: %v", req.path, err)
					continue
				}
				if v.verify(req, reval, &resp) {
					st.record(class, &resp)
					if k := int(now().Sub(start) / time.Second); k < len(st.windows) {
						st.windows[k].record(int64(resp.rtt))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	out := &passStats{elapsed: seconds(start)}
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// workerRand is load-generator w's request stream: fixed by the seed.
func workerRand(seed int64, w int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(w) + 1))
}

// adviceOracle renders the body /api/v1/advice must return for f and
// order at generation gen: the store's unindexed SelectScan, then
// pareto.Advice, in the API's envelope.
func adviceOracle(st *dataset.Store, gen uint64, f dataset.Filter, order pareto.SortOrder) ([]byte, error) {
	rows := pareto.Advice(st.SelectScan(f), order)
	if rows == nil {
		rows = []dataset.Point{}
	}
	return json.Marshal(service.AdviceResponse{Generation: gen, Sort: service.OrderName(order), Count: len(rows), Rows: rows})
}

// checkAdvice compares a served advice body with the oracle.
func checkAdvice(st *dataset.Store, gen uint64, req *request, body []byte) error {
	want, err := adviceOracle(st, gen, req.filter, req.order)
	if err != nil {
		return err
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("%s: body (%d bytes) differs from the SelectScan+pareto.Advice oracle (%d bytes)", req.path, len(body), len(want))
	}
	return nil
}

// freshRender renders a predicted-advice or plot request through a
// service layer, as the API handlers do. The bytes may be shared with the
// service's caches and must not be modified.
func freshRender(svc *service.Service, req *request) ([]byte, error) {
	u, err := url.Parse(req.path)
	if err != nil {
		return nil, err
	}
	switch req.class {
	case clsPredicted, clsPredictedApp:
		pr, err := service.ParsePredictRequest(u.Query())
		if err != nil {
			return nil, err
		}
		b, _, err := svc.PredictedAdviceJSON(pr)
		return b, err
	case clsPlot:
		name := strings.TrimSuffix(strings.TrimPrefix(u.Path, "/api/v1/plots/"), ".svg")
		pr, err := service.ParsePlotRequest(name, u.Query())
		if err != nil {
			return nil, err
		}
		b, _, err := svc.PlotSVG(pr)
		return b, err
	}
	return nil, fmt.Errorf("no fresh-advisor rendering for class %s", classNames[req.class])
}

// checkFresh compares a served predicted-advice or plot body with what a
// fresh advisor's service layer renders for the same request.
func checkFresh(svc *service.Service, req *request, body []byte) error {
	want, err := freshRender(svc, req)
	if err != nil {
		return err
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("%s: body (%d bytes) differs from a fresh advisor's (%d bytes)", req.path, len(body), len(want))
	}
	return nil
}

// sampledBody returns the body the run served for a sampled entry, or
// fetches it now when the run never drew the entry.
func sampledBody(e *env, t *bodyTable, req *request) ([]byte, error) {
	t.mu.Lock()
	b := t.sample[req.id]
	t.mu.Unlock()
	if b != nil {
		return b, nil
	}
	c := newClient(e.base, 0)
	defer c.close()
	r, err := c.do(req.path, "", nil, req.class, time.Time{})
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d", req.path, r.status)
	}
	if !t.observe(req.id, r.body) {
		return nil, fmt.Errorf("%s: body differs from an earlier response in the same generation", req.path)
	}
	return append([]byte(nil), r.body...), nil
}
