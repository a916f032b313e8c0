package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"hpcadvisor/internal/core"
	"hpcadvisor/internal/fsatomic"
	"hpcadvisor/internal/service"
	"hpcadvisor/internal/storage"
)

// The harness's self-test runs on the tiny fixture (36 points); run it
// from this directory with `go test ./...`.

// tinyFixture builds the tiny fixture for seed into a temporary directory.
func tinyFixture(t *testing.T, seed int64) *fixture {
	t.Helper()
	fx, err := planFixture(seed, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if err := buildFixture(fx, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	return fx
}

// runBench runs one invocation in-process and decodes its result line.
func runBench(t *testing.T, root, workload string, trace int) result {
	t.Helper()
	out, err := benchMain(&options{workload: workload, seed: 3, seconds: 1, trace: trace, root: root, size: "tiny", inProcess: true})
	if err != nil {
		t.Fatalf("%s trace=%d: %v", workload, trace, err)
	}
	var r result
	if err := json.Unmarshal([]byte(out), &r); err != nil {
		t.Fatalf("%s: result line %q: %v", workload, out, err)
	}
	return r
}

func TestSmokeEveryMetricPrintedWithUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	root := t.TempDir()
	for _, w := range workloads {
		for trace, list := range [][]metric{endToEndFor(w), perLayer} {
			r := runBench(t, root, w, trace)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w, trace, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(list) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w, trace, len(r.Metrics), len(list))
			}
			for _, m := range list {
				got, ok := r.Metrics[m.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: metric %s missing", w, trace, m.name)
				case got.Unit != m.unit:
					t.Errorf("%s trace=%d: %s unit %q, want %q", w, trace, m.name, got.Unit, m.unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%d: %s = %v", w, trace, m.name, got.Value)
				case trace == 0 && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.name, got.Value)
				}
			}
		}
	}
}

func TestAdviceOracleFiresOnCorruptBody(t *testing.T) {
	fx := tinyFixture(t, 5)
	st, b, err := storage.Open(fx.Store)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	gen := st.Generation()
	for _, req := range hotAdviceSet(fx, randFor(5)) {
		body, err := adviceOracle(st, gen, req.filter, req.order)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkAdvice(st, gen, &req, body); err != nil {
			t.Fatalf("intact body rejected: %v", err)
		}
		bad := append([]byte(nil), body...)
		bad[len(bad)/2] ^= 1
		if checkAdvice(st, gen, &req, bad) == nil {
			t.Errorf("%s: corrupted body passed the oracle", req.path)
		}
		if checkAdvice(st, gen+1, &req, body) == nil {
			t.Errorf("%s: body of another generation passed the oracle", req.path)
		}
	}
}

func TestIdenticalBytesCheckFires(t *testing.T) {
	tb := newBodyTable(2, []int{1})
	if !tb.observe(0, []byte("abc")) || !tb.observe(0, []byte("abc")) {
		t.Fatal("identical bodies rejected")
	}
	if tb.observe(0, []byte("abd")) {
		t.Error("a different body in the same generation passed")
	}
	tb.observe(1, []byte("kept"))
	if got := string(tb.sample[1]); got != "kept" {
		t.Errorf("sampled body %q, want %q", got, "kept")
	}
}

func TestFreshAdvisorCheckFiresOnCorruptBody(t *testing.T) {
	fx := tinyFixture(t, 6)
	adv := core.New("perfbench")
	if err := adv.OpenStore(fx.Store); err != nil {
		t.Fatal(err)
	}
	defer adv.CloseStore()
	svc := service.NewWithRegion(adv, region)
	mix := coldQueryMix(fx, 6)
	for _, id := range mix.sample {
		req := &mix.pool[id]
		if req.class == clsColdAdvice {
			continue
		}
		rendered, err := freshRender(svc, req)
		if err != nil {
			t.Fatal(err)
		}
		body := append([]byte(nil), rendered...)
		if err := checkFresh(svc, req, body); err != nil {
			t.Fatalf("%s: intact body rejected: %v", req.path, err)
		}
		body[len(body)-2] ^= 1
		if checkFresh(svc, req, body) == nil {
			t.Errorf("%s: corrupted body passed", req.path)
		}
	}
}

func TestSweepGroupCheckFiresOnCollapsedInputs(t *testing.T) {
	fx := tinyFixture(t, 7)
	st, b, err := storage.Open(fx.Store)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	pts := st.All()
	if err := checkSweepGroups(pts, fx.Apps, fx); err != nil {
		t.Fatalf("intact fixture rejected: %v", err)
	}
	// An unknown input key makes the model fall back to its default input,
	// so two inputs' sweeps share one description.
	collapsed := append(pts[:0:0], pts...)
	for i := range collapsed {
		if collapsed[i].AppName == fx.Apps[0].Name {
			collapsed[i].InputDesc = fx.Apps[0].Descs[0]
		}
	}
	if checkSweepGroups(collapsed, fx.Apps, fx) == nil {
		t.Error("collapsed inputs passed the sweep-group check")
	}
	if checkSweepGroups(pts[1:], fx.Apps, fx) == nil {
		t.Error("a missing point passed the sweep-group check")
	}
}

func TestPlanFixtureRejectsUnknownInputKey(t *testing.T) {
	saved := fixtureApps[1]
	defer func() { fixtureApps[1] = saved }()
	fixtureApps[1].key = "BLOCKMESH" // openfoam reads BLOCKMESH_DIMENSIONS
	if _, err := planFixture(1, "tiny"); err == nil {
		t.Error("an input key the model ignores produced a fixture")
	}
}

func TestLiveChecksFireOnWrongDataset(t *testing.T) {
	fx := tinyFixture(t, 8)
	work := t.TempDir()
	ref, err := collectReference(fx, filepath.Join(work, "ref"))
	if err != nil {
		t.Fatal(err)
	}
	rn := &run{seed: 8, fx: fx, ref: ref, work: work, tally: &tally{}, spans: &spanLog{t0: now()}}
	if _, err := liveCollectRound(rn, 0, false); err != nil {
		t.Fatal(err)
	}
	if n := rn.tally.failed.Load(); n != 0 {
		t.Fatalf("intact round failed %d checks: %v", n, rn.tally.errs)
	}
	rn.ref = &refSweep{Hash: "not-the-dataset", Failed: ref.Failed + 1}
	if _, err := liveCollectRound(rn, 1, false); err != nil {
		t.Fatal(err)
	}
	if n := rn.tally.failed.Load(); n != 2 {
		t.Errorf("wrong final dataset and failed count: %d failed checks, want 2 (%v)", n, rn.tally.errs)
	}
}

func TestPollerFiresOnETagGoingBackwards(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gen := []string{"5", "4"}[min(n.Add(1)-1, 1)]
		w.Header().Set("ETag", `"g`+gen+`"`)
		w.Write([]byte(`{"generation":` + gen + `,"rows":[]}`))
	}))
	defer srv.Close()
	tl := &tally{}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		pollLoop(&env{base: srv.URL, etag: `"g3"`, gen: 3}, []request{{path: "/"}}, stop, nil, tl)
	}()
	for tl.attempted.Load() < 3 {
		yield()
	}
	close(stop)
	<-done
	if tl.failed.Load() == 0 {
		t.Error("an ETag going backwards passed the poller's check")
	}
}

func TestSameSeedSameRequests(t *testing.T) {
	a, _ := planFixture(11, "full")
	b, _ := planFixture(11, "full")
	c, _ := planFixture(12, "full")
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	jc, _ := json.Marshal(c)
	if string(ja) != string(jb) {
		t.Error("one seed planned two different fixtures")
	}
	if string(ja) == string(jc) {
		t.Error("two seeds planned the same fixture")
	}
	seq := func(fx *fixture, seed int64) []string {
		var out []string
		for _, mix := range []*readMix{hotReadMix(fx, seed), coldQueryMix(fx, seed)} {
			for w := 0; w < loadClients; w++ {
				r := workerRand(seed, w)
				for i := 0; i < 200; i++ {
					req, reval := mix.draw(r, i)
					p := req.path
					if reval {
						p = "revalidate " + p
					}
					out = append(out, p)
				}
			}
		}
		return out
	}
	s1, s2, s3 := seq(a, 11), seq(b, 11), seq(c, 12)
	if strings.Join(s1, "\n") != strings.Join(s2, "\n") {
		t.Error("one seed gave two request sequences")
	}
	if strings.Join(s1, "\n") == strings.Join(s3, "\n") {
		t.Error("two seeds gave the same request sequence")
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		h.record(int64(1000 + r.Intn(1000000)))
	}
	for _, q := range []float64{0.5, 0.99} {
		want := 1000 + q*1000000
		if got := h.quantile(q); math.Abs(got-want)/want > 0.02 {
			t.Errorf("q%.2f = %.0f, want about %.0f", q, got, want)
		}
	}
	var e hist
	if e.quantile(0.5) != 0 {
		t.Error("empty histogram quantile != 0")
	}
}

func TestFixtureCacheKeyedByProgram(t *testing.T) {
	cache := t.TempDir()
	// A fixture cached under the seed alone, as another build of the
	// program might leave it, must not be served.
	stale := filepath.Join(cache, "tiny-4")
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fsatomic.WriteFile(filepath.Join(stale, "manifest.json"), []byte(`{"points":-1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	fx, err := cachedFixture(cache, 4, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	key, err := programKey()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := filepath.Base(filepath.Dir(fx.Store)), "tiny-4-"+key; got != want {
		t.Errorf("fixture cached in %s, want %s", got, want)
	}
	if fx.Points != 36 {
		t.Errorf("fixture has %d points, want 36", fx.Points)
	}
	again, err := cachedFixture(cache, 4, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if again.Store != fx.Store {
		t.Errorf("second lookup served %s, want the cached %s", again.Store, fx.Store)
	}
}

func TestQuantileOf(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.75: 4, 1: 5} {
		if got := quantileOf(xs, q); got != want {
			t.Errorf("quantileOf(%v, %g) = %g, want %g", xs, q, got, want)
		}
	}
	if got := median([]float64{1, 2}); got != 1.5 {
		t.Errorf("median of 1, 2 = %g, want 1.5", got)
	}
}
