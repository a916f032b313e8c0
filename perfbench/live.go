package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hpcadvisor/internal/core"
	"hpcadvisor/internal/fsatomic"
	"hpcadvisor/internal/scenario"
	"hpcadvisor/internal/storage"
)

// live-collect: the program collects a fixed sweep of new inputs through
// the journal into the open segment store and compacts it, while one
// connection polls hot-read's advice set in an open loop at pollHz,
// revalidating with the last ETag it saw. A run repeats the sweep on fresh
// copies of the fixture until its time is up; every round is the same
// work, so rounds and runs compare.

// pollHz is the poller's fixed rate. Each poll after a generation roll
// rebuilds the snapshot (about 20 ms on two cores), so 20 polls/s leaves
// the collector most of a core.
const pollHz = 20

// refSweep is live-collect's sweep collected with no reader: the dataset
// and failed-scenario count it produces, and its collection rate.
type refSweep struct {
	Hash      string  `json:"hash"`
	Failed    int     `json:"failed_scenarios"`
	Scenarios int     `json:"scenarios"`
	Rate      float64 `json:"scenarios_per_s"` // the fastest repeat's
	// Disagree names a repeat whose dataset or failed count differs from
	// the first one's; empty when all agree.
	Disagree string `json:"disagree,omitempty"`
}

// durableSweeps is how many times the prep process runs live-collect's
// sweep with no reader, for the dataset its rounds must reproduce and to
// check that the sweep is deterministic.
const durableSweeps = 2

func mergeReferences(refs []*refSweep) *refSweep {
	out := *refs[0]
	for i, r := range refs {
		out.Rate = max(out.Rate, r.Rate)
		if out.Disagree == "" && (r.Hash != out.Hash || r.Failed != out.Failed) {
			out.Disagree = fmt.Sprintf("repeat %d: dataset %s with %d failed scenarios, first had %s with %d", i, r.Hash, r.Failed, out.Hash, out.Failed)
		}
	}
	return &out
}

func (r *refSweep) agreement() error {
	if r.Disagree != "" {
		return fmt.Errorf("the no-reader sweep is not deterministic: %s", r.Disagree)
	}
	return nil
}

// copyStore copies the fixture's store directory to dst and then flushes
// every dirty buffer, so the sweep that follows starts on a quiet disk:
// neither the copy nor the previous round's deletions are written back
// under its fsyncs.
func copyStore(src, dst string) error {
	defer syscall.Sync()
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := fsatomic.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// storeHash reopens the store at dir from disk and hashes its points in
// append order.
func storeHash(dir string) (string, error) {
	st, b, err := storage.Open(dir)
	if err != nil {
		return "", err
	}
	defer b.Close()
	data, err := st.Marshal()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// collectReference runs live-collect's sweep on a copy of the fixture with
// no server and no reader.
func collectReference(fx *fixture, dir string) (*refSweep, error) {
	store := filepath.Join(dir, "store")
	if err := copyStore(fx.Store, store); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	adv := core.New("perfbench")
	if err := adv.OpenStore(store); err != nil {
		return nil, err
	}
	t0 := now()
	n, failed, err := fx.collectSweeps(adv, fx.Live, dir, "live", nil)
	if err == nil {
		err = adv.Store.Flush()
	}
	sweep := seconds(t0)
	if err == nil {
		err = adv.Backend.Compact()
	}
	if cerr := adv.CloseStore(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	hash, err := storeHash(store)
	if err != nil {
		return nil, err
	}
	return &refSweep{Hash: hash, Failed: failed, Scenarios: n, Rate: float64(n) / sweep}, nil
}

// liveRound is one sweep's figures.
type liveRound struct {
	setup, sweep, compact float64 // seconds
	scenarios             int
	polls                 *passStats
	layers                map[string]float64
}

// livePass runs rounds until dur is spent (at least minRounds).
func livePass(rn *run, dur time.Duration, traced bool, minRounds int) (*passResult, error) {
	start := now()
	var rounds []*liveRound
	for k := 0; k < minRounds || now().Sub(start) < dur; k++ {
		// Let the previous round's store, mappings included, go first.
		runtime.GC()
		runtime.GC()
		lr, err := liveCollectRound(rn, k, traced)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, lr)
	}
	var setup, rate, ops, p50, p99 []float64
	var polls int64
	for _, lr := range rounds {
		setup = append(setup, lr.setup)
		rate = append(rate, float64(lr.scenarios)/lr.sweep)
		ops = append(ops, float64(lr.polls.ok()+int64(lr.scenarios))/(lr.sweep+lr.compact))
		p50 = append(p50, lr.polls.lat.quantile(0.50))
		p99 = append(p99, lr.polls.lat.quantile(0.99))
		polls += lr.polls.ok()
	}
	// Latencies are medians over rounds of each round's percentile, like
	// the read workloads' one-second windows: every round carries the same
	// sweep, so a round the machine stalls in is an outlier to discard.
	// Rates are the fastest round's: the sweep is fsync-bound, and a busy
	// shared disk only ever slows a round.
	// throughput_rps counts the operations the program completed — polls
	// answered plus scenarios collected — per second of the round's sweep
	// and compaction, which the poller spans.
	res := &passResult{e2e: map[string]float64{
		"setup_s":                 median(setup),
		"throughput_rps":          slices.Max(ops),
		"latency_p50_ms":          median(p50) / 1e6,
		"latency_p99_ms":          median(p99) / 1e6,
		"peak_rss_mb":             peakRSSMB(),
		"collect_scenarios_per_s": slices.Max(rate),
	}}
	fmt.Fprintf(os.Stderr, "live-collect: %d rounds, %d polls, set-ups %.4g s, sweep rates %.0f scenarios/s, %.0f ops/s\n", len(rounds), polls, setup, rate, ops)
	if traced {
		res.layers = mergeLiveLayers(rounds)
	}
	return res, nil
}

// liveCollectRound is one round: copy the fixture, open and serve it, run
// the sweep under the poller, compact, check.
func liveCollectRound(rn *run, k int, traced bool) (*liveRound, error) {
	fx := rn.fx
	dir := filepath.Join(rn.work, "live-"+strconv.Itoa(k))
	store := filepath.Join(dir, "store")
	if err := copyStore(fx.Store, store); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	set := hotAdviceSet(fx, randFor(rn.seed))
	var tr *tracer
	var ot openTimes
	if traced {
		tr = newTracer(rn.spans, 1)
	}
	e, setup, err := openEnv(store, set[:1], tr, &ot)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			e.stop()
		}
	}()
	lr := &liveRound{setup: setup.Seconds()}

	var (
		sink   *timedSink
		timer  *scenarioTimer
		before map[string]float64
		round  uint64
	)
	var progress func(*scenario.Task)
	if traced {
		round = tr.nextID()
		timer = newScenarioTimer(tr, round)
		progress = timer.progress
		sink = &timedSink{next: e.adv.Backend, tr: tr, parent: timer.current.Load}
		e.adv.Store.Attach(sink)
		c := newClient(e.base, 0)
		before, err = scrapeMetrics(c)
		c.close()
		if err != nil {
			return nil, err
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var pr *pollResult
	wg.Add(1)
	go func() {
		defer wg.Done()
		pr = pollLoop(e, set, stop, tr, rn.tally)
	}()
	p0 := sampleProc()
	t0 := now()
	n, failed, err := fx.collectSweeps(e.adv, fx.Live, dir, "live", progress)
	if err == nil {
		err = e.adv.Store.Flush()
	}
	lr.sweep = seconds(t0)
	var walBytes int64
	if err == nil {
		walBytes, err = filesBytes(store, "wal-")
	}
	tc := now()
	if err == nil {
		err = e.adv.Backend.Compact()
	}
	lr.compact = seconds(tc)
	close(stop)
	wg.Wait()
	p1 := sampleProc()
	if err != nil {
		rn.tally.fail("collect: %v", err)
		return nil, err
	}
	rn.tally.ok()
	lr.scenarios = n
	lr.polls = pr.stats
	if traced {
		c := newClient(e.base, 0)
		after, err := scrapeMetrics(c)
		c.close()
		if err != nil {
			return nil, err
		}
		snapBytes, err := filesBytes(store, "snapshot-")
		if err != nil {
			return nil, err
		}
		points := float64(e.adv.Store.Len())
		polls := float64(pr.stats.ok())
		attempts, tasks := 0, 0
		for _, d := range e.adv.Deployments() {
			for _, t := range e.adv.ScenarioTasks(d) {
				attempts += t.Attempts
				tasks++
			}
		}
		sink.mu.Lock()
		appendHist, busy := sink.append, sink.busy
		sink.mu.Unlock()
		timer.mu.Lock()
		scen := timer.times
		timer.mu.Unlock()
		m := map[string]float64{
			"http.self_us_p50":                       pr.stats.self.quantile(0.50) / 1e3,
			"http.self_us_p99":                       pr.stats.self.quantile(0.99) / 1e3,
			"api.handler_us_p50":                     pr.stats.handler[clsPoll].quantile(0.50) / 1e3,
			"api.handler_us_p99":                     pr.stats.handler[clsPoll].quantile(0.99) / 1e3,
			"api.not_modified_share":                 ratio(after["hpcadvisor_http_not_modified_total"]-before["hpcadvisor_http_not_modified_total"], polls),
			"api.resp_bytes_per_op":                  float64(pr.stats.bytes) / polls,
			"api.body_cache_hit_ratio":               ratio(after["hpcadvisor_http_body_cache_hits_total"]-before["hpcadvisor_http_body_cache_hits_total"], float64(pr.rolls)),
			"dataset.rebuild_ms_p50":                 pr.rebuild.quantile(0.50) / 1e6,
			"dataset.rebuild_ms_p99":                 pr.rebuild.quantile(0.99) / 1e6,
			"dataset.rolls_per_poll":                 ratio(float64(pr.rolls), polls),
			"storage.open_ms":                        float64(ot.open) / 1e6,
			"storage.first_snapshot_ms":              float64(ot.snapshot) / 1e6,
			"storage.append_us_p50":                  appendHist.quantile(0.50) / 1e3,
			"storage.append_us_p99":                  appendHist.quantile(0.99) / 1e3,
			"storage.wal_bytes_per_point":            float64(walBytes) / float64(n),
			"storage.compact_s":                      lr.compact,
			"storage.snapshot_bytes_per_point":       float64(snapBytes) / points,
			"collector.scenario_ms_p50":              scen.quantile(0.50) / 1e6,
			"collector.scenario_ms_p99":              scen.quantile(0.99) / 1e6,
			"collector.storage_share":                busy.Seconds() / lr.sweep,
			"collector.attempts_per_scenario":        ratio(float64(attempts), float64(tasks)),
			"collector.journal_records_per_scenario": (after["hpcadvisor_collect_journal_records_total"] - before["hpcadvisor_collect_journal_records_total"]) / float64(n),
			"collector.failed_scenarios":             float64(failed),
			"loadgen.late_ms_max":                    float64(pr.stats.late) / 1e6,
		}
		procLayers(m, p0, p1, polls+float64(n))
		tr.spans.add(round, 0, "live-collect.round", t0, now().Sub(t0))
		lr.layers = m
	}

	// Checks: the advice set after the sweep against the oracle, then the
	// dataset on disk against the no-reader sweep.
	gen := e.adv.Store.Generation()
	c := newClient(e.base, 0)
	for i := range set {
		req := &set[i]
		r, err := c.do(req.path, "", nil, clsPoll, time.Time{})
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("status %d", r.status)
		}
		if err == nil {
			err = checkAdvice(e.adv.Store, gen, req, r.body)
		}
		rn.tally.check("live advice oracle", err)
	}
	c.close()
	stopped = true
	if err := e.stop(); err != nil {
		return nil, err
	}
	hash, err := storeHash(store)
	if err != nil {
		return nil, err
	}
	if hash != rn.ref.Hash {
		rn.tally.fail("live-collect round %d: final dataset differs from the same sweep collected with no reader", k)
	} else {
		rn.tally.ok()
	}
	if failed != rn.ref.Failed {
		rn.tally.fail("live-collect round %d: %d failed scenarios, the no-reader sweep had %d", k, failed, rn.ref.Failed)
	} else {
		rn.tally.ok()
	}
	return lr, nil
}

// mergeLiveLayers combines the rounds' layer metrics: medians across
// rounds, except the generator's lateness, which is the maximum.
func mergeLiveLayers(rounds []*liveRound) map[string]float64 {
	out := map[string]float64{}
	vals := map[string][]float64{}
	for _, lr := range rounds {
		for k, v := range lr.layers {
			vals[k] = append(vals[k], v)
		}
	}
	for k, vs := range vals {
		switch k {
		case "loadgen.late_ms_max":
			out[k] = slices.Max(vs)
		default:
			out[k] = median(vs)
		}
	}
	return out
}

// pollResult is the poller's figures for one round.
type pollResult struct {
	stats   *passStats
	rebuild hist  // handler time of polls answered 200 (traced)
	rolls   int64 // polls answered 200: the generation rolled since the last
}

// pollLoop polls set in order at pollHz until stop closes, each poll timed
// from when it was due and sent with the last ETag seen. It checks that
// ETags never go backwards and that every 200 body is rendered at the
// generation its ETag names.
func pollLoop(e *env, set []request, stop <-chan struct{}, tr *tracer, t *tally) *pollResult {
	c := newClient(e.base, 0)
	defer c.close()
	pr := &pollResult{stats: &passStats{}}
	period := time.Second / pollHz
	start := now()
	due := start
	tag, gen := e.etag, e.gen
	for i := 0; ; i++ {
		select {
		case <-stop:
			pr.stats.elapsed = seconds(start)
			return pr
		default:
		}
		sleepUntil(due)
		if late := now().Sub(due); late > pr.stats.late {
			pr.stats.late = late
		}
		req := &set[i%len(set)]
		r, err := c.do(req.path, tag, tr, clsPoll, due)
		due = due.Add(period)
		if err != nil {
			t.fail("poll %s: %v", req.path, err)
			continue
		}
		g, err := parseETag(r.etag)
		switch {
		case err != nil:
			t.fail("poll %s: %v", req.path, err)
			continue
		case g < gen:
			t.fail("poll %s: ETag went backwards from %s to %s", req.path, tag, r.etag)
			continue
		case r.status == http.StatusNotModified:
			if g != gen || len(r.body) != 0 {
				t.fail("poll %s: 304 with ETag %s after %s", req.path, r.etag, tag)
				continue
			}
		case r.status == http.StatusOK:
			if !bytes.HasPrefix(r.body, []byte(`{"generation":`+strconv.FormatUint(g, 10)+`,`)) {
				t.fail("poll %s: body generation differs from ETag %s: %.80s", req.path, r.etag, r.body)
				continue
			}
			pr.rolls++
			if r.handler > 0 {
				pr.rebuild.record(int64(r.handler))
			}
		default:
			t.fail("poll %s: status %d", req.path, r.status)
			continue
		}
		t.ok()
		tag, gen = r.etag, g
		pr.stats.record(clsPoll, &r)
	}
}

// filesBytes sums the sizes of dir's files whose names start with prefix.
func filesBytes(dir, prefix string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}
