// Command perfbench is HPCAdvisor's end-to-end benchmark. It builds a
// dataset from the seed with the program's own collector, serves it with
// the program's `serve` stack on a loopback TCP listener, drives one of
// three workloads against it, checks every output, and prints the
// workload's metrics as one JSON object on the last line of stdout.
//
//	bash perfbench/run.sh --workload hot-read --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced, and prints the per-layer metrics plus the
// tracing overhead. See perfbench/README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hpcadvisor/internal/fsatomic"
)

// metric is one reported figure's name and unit.
type metric struct {
	name, unit string
	// owners are the workloads whose traced pass measures a per-layer
	// metric; nil means whichever workload the run is for.
	owners []string
}

var endToEnd = []metric{
	{name: "setup_s", unit: "s"},
	{name: "throughput_rps", unit: "req/s"},
	{name: "latency_p50_ms", unit: "ms"},
	{name: "latency_p99_ms", unit: "ms"},
	{name: "peak_rss_mb", unit: "MB"},
}

// endToEndFor lists a workload's end-to-end metrics: every workload's, and
// live-collect's collection rate.
func endToEndFor(workload string) []metric {
	if workload == "live-collect" {
		return append(slices.Clip(endToEnd), metric{name: "collect_scenarios_per_s", unit: "1/s"})
	}
	return endToEnd
}

var (
	hot  = []string{"hot-read"}
	cold = []string{"cold-query"}
	live = []string{"live-collect"}
)

var perLayer = []metric{
	{"http.self_us_p50", "us", hot},
	{"http.self_us_p99", "us", hot},
	{"api.handler_us_p50", "us", hot},
	{"api.handler_us_p99", "us", hot},
	{"api.not_modified_share", "ratio", hot},
	{"api.resp_bytes_per_op", "B", []string{"hot-read", "cold-query"}},
	{"api.body_cache_hit_ratio", "ratio", []string{"hot-read", "live-collect"}},
	{"queryengine.hit_ratio", "ratio", cold},
	{"queryengine.evictions_per_op", "count", cold},
	{"dataset.advice_ms_p50", "ms", cold},
	{"dataset.advice_ms_p99", "ms", cold},
	{"dataset.first_select_ms", "ms", cold},
	{"dataset.rebuild_ms_p50", "ms", live},
	{"dataset.rebuild_ms_p99", "ms", live},
	{"dataset.rolls_per_poll", "ratio", live},
	{"plot.svg_ms_p50", "ms", cold},
	{"plot.svg_ms_p99", "ms", cold},
	{"predictor.predicted_ms_p50", "ms", cold},
	{"predictor.predicted_ms_p99", "ms", cold},
	{"predictor.dataset_wide_ms", "ms", cold},
	{"storage.open_ms", "ms", nil},
	{"storage.first_snapshot_ms", "ms", nil},
	{"storage.append_us_p50", "us", live},
	{"storage.append_us_p99", "us", live},
	{"storage.wal_bytes_per_point", "B", live},
	{"storage.compact_s", "s", live},
	{"storage.snapshot_bytes_per_point", "B", live},
	{"collector.scenario_ms_p50", "ms", live},
	{"collector.scenario_ms_p99", "ms", live},
	{"collector.storage_share", "ratio", live},
	{"collector.attempts_per_scenario", "ratio", live},
	{"collector.journal_records_per_scenario", "ratio", live},
	{"collector.failed_scenarios", "count", live},
	{"process.cpu_ms_per_op", "ms", nil},
	{"go.alloc_kb_per_op", "KiB", nil},
	{"go.gc_pause_ms", "ms", nil},
	{"loadgen.late_ms_max", "ms", live},
	{"trace.overhead_rate_pct", "%", nil},
	{"trace.overhead_latency_p50_pct", "%", nil},
	{"trace.overhead_latency_p99_pct", "%", nil},
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	root     string
	size     string // fixture size: full, or tiny for the self-test
	prep     string // internal: build the fixture and run the no-reader sweeps in this process
	probe    string // internal: time one set-up of this workload and print it
	// inProcess runs the preparation in this process instead of a child
	// (the self-test, whose binary cannot re-run itself as the harness).
	inProcess bool
}

func main() {
	o := options{size: "full"}
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 30, "seconds one run measures")
	flag.IntVar(&o.trace, "trace", 0, "1 prints per-layer metrics from a traced run")
	flag.StringVar(&o.root, "root", ".", "checkout root; scratch files go under <root>/.bench_build/perfbench")
	flag.StringVar(&o.prep, "prep", "", "internal: prepare the fixture and no-reader sweeps in this directory")
	flag.StringVar(&o.probe, "probe", "", "internal: time one set-up of this workload")
	flag.Parse()
	if o.probe != "" {
		if err := probeMain(&o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench probe:", err)
			os.Exit(1)
		}
		return
	}
	if o.prep != "" {
		if err := prepMain(&o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench prep:", err)
			os.Exit(1)
		}
		return
	}
	out, err := benchMain(&o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(out)
}

// result is the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// prepared is what the prep process hands back.
type prepared struct {
	Fixture *fixture `json:"fixture"`
	// Durable is the no-reader durable sweep live-collect's rounds must
	// reproduce; a traced run, which measures every workload, has it too.
	Durable *refSweep `json:"durable_sweep,omitempty"`
}

// benchMain runs one benchmark invocation and returns the result line.
func benchMain(o *options) (string, error) {
	if !slices.Contains(workloads, o.workload) {
		return "", fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return "", fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	base, err := benchDir(o.root)
	if err != nil {
		return "", err
	}
	work := filepath.Join(base, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return "", err
	}
	defer os.RemoveAll(work)

	// The fixture and the no-reader sweeps are built and run in a child
	// process, so their memory does not count in this process's peak RSS.
	prep, err := runPrep(o, work)
	if err != nil {
		return "", err
	}
	rn := &run{seed: o.seed, fx: prep.Fixture, ref: prep.Durable, work: work, tally: &tally{}, spans: &spanLog{t0: now()}}
	rn.probe = func(name string) (float64, error) { return runProbe(o, rn.fx, name) }
	if prep.Durable != nil {
		rn.tally.check("repeated no-reader sweeps agree", prep.Durable.agreement())
	}
	printEnv(o, prep)

	dur := time.Duration(o.seconds) * time.Second
	var metrics map[string]metricValue
	if o.trace == 0 {
		res, err := runPass(rn, o.workload, dur, false, true)
		if err != nil {
			return "", err
		}
		metrics = pick(endToEndFor(o.workload), res.e2e)
	} else {
		metrics, err = tracedRun(rn, o, dur)
		if err != nil {
			return "", err
		}
		path := filepath.Join(base, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := rn.spans.write(path); err != nil {
			return "", err
		}
		fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
	}
	rn.tally.mu.Lock()
	for _, e := range rn.tally.errs {
		fmt.Fprintln(os.Stderr, "FAILED:", e)
	}
	rn.tally.mu.Unlock()
	res := result{
		Attempted: rn.tally.attempted.Load(),
		Failed:    rn.tally.failed.Load(),
		Metrics:   metrics,
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	b, err := json.Marshal(res)
	return string(b), err
}

// runPass runs one pass of a workload. full selects the normal run's
// set-up repeats; a traced run's passes set up once each.
func runPass(rn *run, name string, dur time.Duration, traced, full bool) (*passResult, error) {
	if name == "live-collect" {
		minRounds := 1
		if full {
			minRounds = 3
		}
		return livePass(rn, dur, traced, minRounds)
	}
	probes := 0
	if full {
		probes = setupProbes
	}
	return readPass(rn, name, dur, traced, probes)
}

// setupProbes is how many extra set-ups a read workload times, each in a
// fresh process; setup_s is the median of these and the pass's own.
const setupProbes = 20

// auxSeconds is how long a traced run measures each workload other than
// its own, for the per-layer metrics only they exercise (at most the run's
// own --seconds).
const auxSeconds = 3

// tracedRun runs the workload untraced and then traced (each with its own
// set-up), runs the other workloads briefly traced for the per-layer
// metrics only they exercise, and reports every per-layer metric plus the
// tracing overhead.
func tracedRun(rn *run, o *options, dur time.Duration) (map[string]metricValue, error) {
	plain, err := runPass(rn, o.workload, dur, false, false)
	if err != nil {
		return nil, err
	}
	traced, err := runPass(rn, o.workload, dur, true, false)
	if err != nil {
		return nil, err
	}
	layers := map[string]float64{}
	for _, m := range perLayer {
		if v, ok := traced.layers[m.name]; ok && (m.owners == nil || slices.Contains(m.owners, o.workload)) {
			layers[m.name] = v
		}
	}
	for _, w := range workloads {
		if w == o.workload {
			continue
		}
		var aux *passResult
		for _, m := range perLayer {
			if _, done := layers[m.name]; done || len(m.owners) == 0 || m.owners[0] != w {
				continue
			}
			if aux == nil {
				if aux, err = runPass(rn, w, min(dur, auxSeconds*time.Second), true, false); err != nil {
					return nil, err
				}
			}
			layers[m.name] = aux.layers[m.name]
		}
	}
	rate := "throughput_rps"
	if o.workload == "live-collect" {
		rate = "collect_scenarios_per_s"
	}
	layers["trace.overhead_rate_pct"] = 100 * (plain.e2e[rate] - traced.e2e[rate]) / plain.e2e[rate]
	layers["trace.overhead_latency_p50_pct"] = 100 * (traced.e2e["latency_p50_ms"] - plain.e2e["latency_p50_ms"]) / plain.e2e["latency_p50_ms"]
	layers["trace.overhead_latency_p99_pct"] = 100 * (traced.e2e["latency_p99_ms"] - plain.e2e["latency_p99_ms"]) / plain.e2e["latency_p99_ms"]
	for _, m := range endToEndFor(o.workload) {
		fmt.Fprintf(os.Stderr, "overhead %-24s untraced %-12.4g traced %-12.4g %s\n", m.name, plain.e2e[m.name], traced.e2e[m.name], m.unit)
	}
	return pick(perLayer, layers), nil
}

// pick renders the listed metrics; a metric a pass did not produce is an
// error in the harness, so it fails loudly rather than printing a zero.
func pick(list []metric, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(list))
	for _, m := range list {
		v, ok := vals[m.name]
		if !ok {
			panic("perfbench: metric " + m.name + " was not measured")
		}
		out[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return out
}

// benchDir is where the benchmark keeps its files in the checkout at root.
func benchDir(root string) (string, error) {
	return filepath.Abs(filepath.Join(root, ".bench_build", "perfbench"))
}

// runPrep runs this binary as a child process to build (or reuse) the
// seed's fixture and to run the no-reader sweeps live-collect needs.
func runPrep(o *options, work string) (*prepared, error) {
	if o.inProcess {
		po := *o
		po.prep = work
		if err := prepMain(&po); err != nil {
			return nil, err
		}
	} else {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(exe, "-prep", work, "-workload", o.workload, "-trace", strconv.Itoa(o.trace),
			"-seed", strconv.FormatInt(o.seed, 10), "-root", o.root)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("prep: %w", err)
		}
	}
	data, err := os.ReadFile(filepath.Join(work, "prep.json"))
	if err != nil {
		return nil, err
	}
	var p prepared
	return &p, json.Unmarshal(data, &p)
}

// runProbe times one set-up of a read workload in a child process (in
// this process for the self-test).
func runProbe(o *options, fx *fixture, name string) (float64, error) {
	if o.inProcess {
		return setupOnce(fx, o.seed, name)
	}
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-probe", name, "-seed", strconv.FormatInt(o.seed, 10), "-root", o.root)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// probeMain is the set-up probe process: open the seed's cached fixture,
// serve it, answer the priming pass, print the set-up seconds.
func probeMain(o *options) error {
	base, err := benchDir(o.root)
	if err != nil {
		return err
	}
	fx, err := cachedFixture(filepath.Join(base, "fixtures"), o.seed, o.size)
	if err != nil {
		return err
	}
	s, err := setupOnce(fx, o.seed, o.probe)
	if err != nil {
		return err
	}
	fmt.Println(strconv.FormatFloat(s, 'g', -1, 64))
	return nil
}

// maxCachedFixtures bounds the fixture cache (about 8 MB each at full
// size): enough for ten seeds of two builds of the program.
const maxCachedFixtures = 24

// prepMain is the child process: reuse the seed's cached fixture or build
// it, then run the no-reader durable sweeps when the run includes
// live-collect, and write the results to <prep>/prep.json.
func prepMain(o *options) error {
	base, err := benchDir(o.root)
	if err != nil {
		return err
	}
	fx, err := cachedFixture(filepath.Join(base, "fixtures"), o.seed, o.size)
	if err != nil {
		return err
	}
	// Start the timed sweeps on a quiet disk and a clean heap: building
	// the fixture, when this seed had none, wrote tens of megabytes.
	syscall.Sync()
	runtime.GC()
	p := prepared{Fixture: fx}
	if o.workload == "live-collect" || o.trace == 1 {
		var refs []*refSweep
		for i := 0; i < durableSweeps; i++ {
			runtime.GC()
			ref, err := collectReference(fx, filepath.Join(o.prep, "reference"))
			if err != nil {
				return err
			}
			refs = append(refs, ref)
		}
		fmt.Fprintf(os.Stderr, "no-reader sweep rates:")
		for _, r := range refs {
			fmt.Fprintf(os.Stderr, " %.0f", r.Rate)
		}
		fmt.Fprintln(os.Stderr, " scenarios/s")
		p.Durable = mergeReferences(refs)
	}
	data, err := json.Marshal(p)
	if err != nil {
		return err
	}
	if err := fsatomic.WriteFile(filepath.Join(o.prep, "prep.json"), data, 0o644); err != nil {
		return err
	}
	// Leave the disk quiet for the measurement that follows: the sweeps
	// above wrote and deleted tens of megabytes.
	syscall.Sync()
	return nil
}

// cachedFixture returns the seed's fixture from the cache, building and
// publishing it on a miss. A fixture is the program's own output (its
// collector, journal, WAL and snapshot format), so the cache is keyed by
// the binary, which embeds the program, as well as by size and seed: two
// builds sharing a checkout never serve each other's fixtures, and every
// build checks the shape of the fixtures it serves when it builds them.
func cachedFixture(cache string, seed int64, size string) (*fixture, error) {
	code, err := programKey()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cache, fmt.Sprintf("%s-%d-%s", size, seed, code))
	if data, err := os.ReadFile(filepath.Join(dir, "manifest.json")); err == nil {
		var fx fixture
		if err := json.Unmarshal(data, &fx); err != nil {
			return nil, err
		}
		fx.Store = filepath.Join(dir, "store")
		return &fx, nil
	}
	fx, err := planFixture(seed, size)
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(cache, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	if err := buildFixture(fx, tmp); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "fixture %s-%d: %d points, %d inputs, %d store bytes, built in %.1fs\n",
		size, seed, fx.Points, fx.Inputs, fx.Bytes, fx.SweepS)
	data, err := json.Marshal(fx)
	if err != nil {
		return nil, err
	}
	if err := fsatomic.WriteFile(filepath.Join(tmp, "manifest.json"), data, 0o644); err != nil {
		return nil, err
	}
	// The sweep journals are not part of the fixture.
	journals, _ := filepath.Glob(filepath.Join(tmp, "*.journal"))
	for _, j := range journals {
		os.Remove(j)
	}
	pruneCache(cache)
	os.RemoveAll(dir)
	//hpcvet:allow atomicwrite publishes a fully built, fsynced fixture directory in one step
	if err := os.Rename(tmp, dir); err != nil {
		return nil, err
	}
	fx.Store = filepath.Join(dir, "store")
	return fx, nil
}

// programKey names the running binary by a hash of its bytes.
func programKey() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// pruneCache removes the oldest cached fixtures beyond the cap.
func pruneCache(cache string) {
	entries, err := os.ReadDir(cache)
	if err != nil {
		return
	}
	type ent struct {
		name string
		mod  time.Time
	}
	var es []ent
	for _, e := range entries {
		if fi, err := e.Info(); err == nil && e.IsDir() && !strings.HasPrefix(e.Name(), "tmp-") {
			es = append(es, ent{e.Name(), fi.ModTime()})
		}
	}
	sort.Slice(es, func(i, j int) bool { return es[i].mod.After(es[j].mod) })
	for i := maxCachedFixtures - 1; i < len(es); i++ {
		os.RemoveAll(filepath.Join(cache, es[i].name))
	}
}

// printEnv records the run's environment and fixture on stdout.
func printEnv(o *options, p *prepared) {
	envInfo := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"fixture": map[string]any{
			"size": p.Fixture.Size, "points": p.Fixture.Points, "distinct_inputs": p.Fixture.Inputs,
			"store_bytes": p.Fixture.Bytes, "failed_scenarios": p.Fixture.Failed,
			"apps": len(p.Fixture.Apps), "skus": len(p.Fixture.SKUs), "nodes": p.Fixture.Nodes,
		},
		"durable_sweep": p.Durable,
	}
	b, _ := json.Marshal(envInfo) // plain maps and numbers always marshal
	fmt.Println("env", string(b))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// randFor is the seed's input-drawing stream (request pools, the hot set).
func randFor(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
