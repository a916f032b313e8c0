// Package cli implements the HPCAdvisor command-line interface with the
// command set of the paper's Table II:
//
//	deploy create    Creates a cloud deployment
//	deploy list      Lists all previous and current cloud deployments
//	deploy shutdown  Shuts down a given cloud deployment, deleting all its resources
//	collect          Collects data, i.e. runs all scenarios on a given deployment
//	plot             Generates plots using a given data filter
//	advice           Generates advice (i.e. Pareto front) using a given data filter
//	gui              Starts the GUI mode
//
// Because the cloud is simulated in-process, the CLI persists its world
// state between invocations in a state directory (default ".hpcadvisor"):
// the deployment records, the scenario task lists, and the dataset. Each
// invocation rehydrates the simulation from that state.
package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"hpcadvisor/internal/api"
	"hpcadvisor/internal/collector"
	"hpcadvisor/internal/config"
	"hpcadvisor/internal/core"
	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/deploy"
	"hpcadvisor/internal/fsatomic"
	"hpcadvisor/internal/gui"
	"hpcadvisor/internal/plot"
	"hpcadvisor/internal/replica"
	"hpcadvisor/internal/scenario"
	"hpcadvisor/internal/service"
	"hpcadvisor/internal/storage"
)

// Run executes the CLI and returns a process exit code.
func Run(args []string, stdout, stderr io.Writer) int {
	c := &CLI{Stdout: stdout, Stderr: stderr, StateDir: ".hpcadvisor"}
	if err := c.run(args); err != nil {
		fmt.Fprintf(stderr, "hpcadvisor: %v\n", err)
		return 1
	}
	return 0
}

// CLI carries the IO and state location of one invocation.
type CLI struct {
	Stdout   io.Writer
	Stderr   io.Writer
	StateDir string

	// ServeGUI is invoked by the gui command; tests replace it to avoid
	// binding a real listener.
	ServeGUI func(addr string, adv *core.Advisor, cfg *config.Config) error

	// ServeHTTP is invoked by the serve command with the combined API+GUI
	// handler; tests replace it to avoid binding a real listener.
	ServeHTTP func(addr string, h http.Handler) error
}

const usage = `usage: hpcadvisor [-state dir] <command> [options]

commands (paper Table II):
  deploy create -c config.yaml     create a cloud deployment
  deploy list -c config.yaml       list previous and current deployments
  deploy shutdown -n name -c cfg   shut down a deployment, deleting resources
  collect -c config.yaml [-n name] [-sampler S] [-spot] [-budget USD]
          [-parallel-pools N] [-resume] [-breaker-threshold N]
          [-breaker-cooldown SEC] [-store path]
                                   run the scenarios on a deployment; -sampler
                                   prunes (discard/perffactor/bottleneck/
                                   combined), -spot uses preemptible capacity,
                                   -budget switches to adaptive best-value mode,
                                   -parallel-pools collects up to N VM-type
                                   pools concurrently (for full sweeps: same
                                   dataset, less time; cross-VM-type samplers
                                   prune less across concurrent lanes).
                                   Every sweep writes a durable journal; after
                                   a crash or Ctrl-C, -resume continues it and
                                   re-executes only work that never became
                                   durable (the final dataset is identical to
                                   an uninterrupted run). -breaker-threshold
                                   consecutive capacity failures open a SKU's
                                   circuit breaker (-1 disables) and its
                                   remaining scenarios are skipped until a
                                   -breaker-cooldown (virtual seconds) probe
                                   re-admits it
  plot [-app A] [-sku S] [-input I] [-minnodes N] [-maxnodes N] [-o dir]
       [-ascii] [-predict] [-store path]
                                   generate plots from collected data;
                                   -predict overlays fitted scaling curves
                                   and prediction-interval bands
  advice [-app A] [-sku S] [-minnodes N] [-maxnodes N] [-sort time|cost]
         [-recipes] [-predict] [-grid "1,2,4"] [-store path]
                                   generate advice (Pareto front); -recipes
                                   adds a Slurm script + cluster recipe per
                                   row, -predict merges model-predicted
                                   scenarios (marked in the Source column)
  predict [-app A] [-sort time|cost] [-grid "1,2,4"] [-region R]
                                   predicted advice over untested (SKU, node
                                   count) scenarios plus a leave-one-out
                                   backtest of the scaling models
  gui [-addr :8199] -c config.yaml [-store path]
                                   start the GUI mode
  serve [-addr :8199] -c config.yaml [-store path]
                                   serve the GUI and the versioned JSON API
                                   on one address (/api/v1/advice,
                                   /api/v1/predicted-advice,
                                   /api/v1/plots/NAME.svg, /api/v1/scenarios,
                                   /api/v1/dataset, /healthz, /metrics) with
                                   generation ETags, request timeouts, and
                                   graceful drain on SIGTERM; advice stays
                                   live while a collection streams points
                                   through the attached store
  dataset info [-store path]       describe the dataset store (format, points,
                                   segments, snapshot format + columnar
                                   footprint, mmap serving, recovery)
  dataset compact [-store path]    fold the segment log into a sorted snapshot
                                   segment for fast loads
  dataset convert -to dst [-store src]
                                   copy the dataset into a new store,
                                   converting between jsonl and segment
                                   formats (a .jsonl suffix means jsonl,
                                   anything else a segment directory)
  apps                             list available application models

The dataset lives in a pluggable store (-store): a JSON Lines file or a
durable binary segment log (WAL + CRC frames + compaction). The default is
<state>/dataset.seg if it exists, else <state>/dataset.jsonl.
`

func (c *CLI) run(args []string) error {
	global := flag.NewFlagSet("hpcadvisor", flag.ContinueOnError)
	global.SetOutput(c.Stderr)
	stateDir := global.String("state", c.StateDir, "state directory")
	if err := global.Parse(args); err != nil {
		return err
	}
	c.StateDir = *stateDir
	rest := global.Args()
	if len(rest) == 0 {
		fmt.Fprint(c.Stdout, usage)
		return nil
	}
	switch rest[0] {
	case "deploy":
		return c.cmdDeploy(rest[1:])
	case "collect":
		return c.cmdCollect(rest[1:])
	case "plot":
		return c.cmdPlot(rest[1:])
	case "advice":
		return c.cmdAdvice(rest[1:])
	case "predict":
		return c.cmdPredict(rest[1:])
	case "gui":
		return c.cmdGUI(rest[1:])
	case "serve":
		return c.cmdServe(rest[1:])
	case "dataset":
		return c.cmdDataset(rest[1:])
	case "apps":
		return c.cmdApps()
	case "help", "-h", "--help":
		fmt.Fprint(c.Stdout, usage)
		return nil
	}
	return fmt.Errorf("unknown command %q (run 'hpcadvisor help')", rest[0])
}

//
// State persistence
//

type state struct {
	Deployments []*deploy.Deployment `json:"deployments"`
}

func (c *CLI) statePath(name string) string { return filepath.Join(c.StateDir, name) }

// resolveStore picks the dataset store path: the -store flag when given,
// else an existing segment store in the state directory (so a converted
// dataset stays in use), else the classic JSONL file.
func (c *CLI) resolveStore(flagValue string) string {
	if flagValue != "" {
		return flagValue
	}
	seg := c.statePath("dataset.seg")
	if fi, err := os.Stat(seg); err == nil && fi.IsDir() {
		return seg
	}
	return c.statePath("dataset.jsonl")
}

func (c *CLI) loadState() (*state, error) {
	var st state
	data, err := os.ReadFile(c.statePath("deployments.json"))
	if err != nil {
		if os.IsNotExist(err) {
			return &st, nil
		}
		return nil, err
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("corrupt state file: %w", err)
	}
	return &st, nil
}

func (c *CLI) saveState(st *state) error {
	if err := os.MkdirAll(c.StateDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return fsatomic.WriteFile(c.statePath("deployments.json"), data, 0o644)
}

// advisorFor rehydrates the simulation: recreates recorded deployments,
// opens the dataset store at storePath (attaching its storage backend),
// and loads the task lists. Callers should CloseStore when done.
func (c *CLI) advisorFor(subscription string, st *state, storePath string) (*core.Advisor, error) {
	if subscription == "" && len(st.Deployments) > 0 {
		subscription = st.Deployments[0].SubscriptionID
	}
	if subscription == "" {
		return nil, fmt.Errorf("no subscription known; pass a config with -c")
	}
	adv := core.New(subscription)
	for _, d := range st.Deployments {
		if err := adv.RestoreDeployment(d); err != nil {
			return nil, fmt.Errorf("restoring deployment %s: %w", d.Name, err)
		}
		listPath := c.statePath("tasks-" + d.Name + ".json")
		list, err := scenario.LoadFile(listPath)
		if err != nil {
			// A missing list just means no collection started yet; anything
			// else (e.g. a corrupt file) must surface, not be treated as a
			// fresh start that would silently re-run everything.
			if !errors.Is(err, os.ErrNotExist) {
				return nil, fmt.Errorf("loading task list for %s: %w", d.Name, err)
			}
		} else {
			list.ResetRunning()
			adv.SetTaskList(d.Name, list)
		}
	}
	if err := adv.OpenStore(storePath); err != nil {
		return nil, err
	}
	return adv, nil
}

// persistAfterCollect records the task list and settles the dataset: the
// points themselves already streamed through the attached storage backend
// during collection, so only the task list needs a save and the backend a
// final flush-and-close.
func (c *CLI) persistAfterCollect(adv *core.Advisor, deployment string) error {
	if err := os.MkdirAll(c.StateDir, 0o755); err != nil {
		return err
	}
	if list := adv.TaskList(deployment); list != nil {
		if err := list.SaveFile(c.statePath("tasks-" + deployment + ".json")); err != nil {
			return err
		}
	}
	return adv.CloseStore()
}

//
// Commands
//

func (c *CLI) cmdDeploy(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("deploy needs a subcommand: create, list, or shutdown")
	}
	sub := args[0]
	fs := flag.NewFlagSet("deploy "+sub, flag.ContinueOnError)
	fs.SetOutput(c.Stderr)
	cfgPath := fs.String("c", "", "configuration file")
	name := fs.String("n", "", "deployment name")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	st, err := c.loadState()
	if err != nil {
		return err
	}
	switch sub {
	case "create":
		cfg, err := c.requireConfig(*cfgPath)
		if err != nil {
			return err
		}
		adv, err := c.advisorFor(cfg.Subscription, st, c.resolveStore(""))
		if err != nil {
			return err
		}
		defer adv.CloseStore()
		d, err := adv.DeployCreate(cfg)
		if err != nil {
			return err
		}
		st.Deployments = append(st.Deployments, d)
		if err := c.saveState(st); err != nil {
			return err
		}
		fmt.Fprintf(c.Stdout, "deployment created: %s (region %s", d.Name, d.Region)
		if d.JumpboxIP != "" {
			fmt.Fprintf(c.Stdout, ", jumpbox %s", d.JumpboxIP)
		}
		fmt.Fprintln(c.Stdout, ")")
		return nil
	case "list":
		if len(st.Deployments) == 0 {
			fmt.Fprintln(c.Stdout, "no deployments")
			return nil
		}
		fmt.Fprintf(c.Stdout, "%-28s %-16s %-10s %s\n", "NAME", "REGION", "STORAGE", "BATCH")
		for _, d := range st.Deployments {
			fmt.Fprintf(c.Stdout, "%-28s %-16s %-10s %s\n", d.Name, d.Region, d.StorageAccount, d.BatchAccount)
		}
		return nil
	case "shutdown":
		if *name == "" {
			return fmt.Errorf("deploy shutdown requires -n name")
		}
		adv, err := c.advisorFor("", st, c.resolveStore(""))
		if err != nil {
			return err
		}
		defer adv.CloseStore()
		if err := adv.DeployShutdown(subscriptionOf(st, *name), *name); err != nil {
			return err
		}
		kept := st.Deployments[:0]
		for _, d := range st.Deployments {
			if d.Name != *name {
				kept = append(kept, d)
			}
		}
		st.Deployments = kept
		_ = os.Remove(c.statePath("tasks-" + *name + ".json"))
		_ = os.Remove(c.statePath("journal-" + *name + ".jnl"))
		if err := c.saveState(st); err != nil {
			return err
		}
		fmt.Fprintf(c.Stdout, "deployment %s shut down\n", *name)
		return nil
	}
	return fmt.Errorf("unknown deploy subcommand %q", sub)
}

func subscriptionOf(st *state, name string) string {
	for _, d := range st.Deployments {
		if d.Name == name {
			return d.SubscriptionID
		}
	}
	if len(st.Deployments) > 0 {
		return st.Deployments[0].SubscriptionID
	}
	return ""
}

func (c *CLI) cmdCollect(args []string) error {
	fs := flag.NewFlagSet("collect", flag.ContinueOnError)
	fs.SetOutput(c.Stderr)
	cfgPath := fs.String("c", "", "configuration file")
	name := fs.String("n", "", "deployment name (default: most recent)")
	samplerName := fs.String("sampler", "full", "scenario sampler: full, discard, perffactor, bottleneck, combined")
	deleteAfter := fs.Bool("delete-pools", false, "delete pools instead of resizing to zero")
	attempts := fs.Int("attempts", 1, "attempts per scenario")
	useSpot := fs.Bool("spot", false, "collect on spot (preemptible) capacity; combine with -attempts > 1")
	budget := fs.Float64("budget", 0, "adaptive mode: collect best-value scenarios until this USD budget is spent")
	parallelPools := fs.Int("parallel-pools", 1, "collect up to N VM-type pools concurrently (1 = the paper's sequential walk)")
	resume := fs.Bool("resume", false, "resume an interrupted sweep from its journal")
	brkThreshold := fs.Int("breaker-threshold", 0, "consecutive capacity failures that open a SKU's circuit breaker (0 = default 3, -1 disables)")
	brkCooldown := fs.Float64("breaker-cooldown", 0, "virtual seconds an open breaker waits before a half-open probe (0 = default 600)")
	storePath := fs.String("store", "", "dataset store path (.jsonl file or segment directory)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resume && *budget > 0 {
		return fmt.Errorf("-resume applies to journaled sweeps; adaptive -budget collection is not journaled")
	}
	cfg, err := c.requireConfig(*cfgPath)
	if err != nil {
		return err
	}
	st, err := c.loadState()
	if err != nil {
		return err
	}
	// The state directory must exist before the store backend lazily
	// creates the dataset file inside it on the first streamed point.
	if err := os.MkdirAll(c.StateDir, 0o755); err != nil {
		return err
	}
	adv, err := c.advisorFor(cfg.Subscription, st, c.resolveStore(*storePath))
	if err != nil {
		return err
	}
	defer adv.CloseStore()
	target := *name
	if target == "" {
		if len(st.Deployments) == 0 {
			return fmt.Errorf("no deployments; run 'hpcadvisor deploy create' first")
		}
		target = st.Deployments[len(st.Deployments)-1].Name
	}
	opts := core.CollectOptions{
		Sampler:          *samplerName,
		DeletePoolAfter:  *deleteAfter,
		MaxAttempts:      *attempts,
		UseSpot:          *useSpot,
		MaxParallelPools: *parallelPools,
		Breaker:          collector.BreakerPolicy{Threshold: *brkThreshold, CooldownSeconds: *brkCooldown},
		Progress: func(t *scenario.Task) {
			if t.Status == scenario.StatusRunning {
				return
			}
			fmt.Fprintf(c.Stdout, "  [%s] %s\n", t.Status, t.ID)
		},
	}
	if *parallelPools > 1 && *samplerName != "" && *samplerName != "full" {
		fmt.Fprintf(c.Stderr, "warning: sampler %q only sees its own VM type's results under -parallel-pools; "+
			"cross-VM-type pruning needs sequential collection\n", *samplerName)
	}

	// Every non-adaptive sweep is journaled, so any crash or interrupt is
	// resumable; adaptive -budget mode re-plans after every scenario and is
	// not (its value-ordering depends on the live dataset, not a fixed
	// task list).
	journalPath := c.statePath("journal-" + target + ".jnl")
	if *budget == 0 {
		j, replay, jerr := collector.OpenJournal(journalPath)
		if jerr != nil {
			return fmt.Errorf("opening sweep journal: %w", jerr)
		}
		defer j.Close()
		if *resume {
			if !replay.Resumable() {
				return fmt.Errorf("nothing to resume: %s has no unfinished sweep", journalPath)
			}
			opts.Resume = replay
		} else {
			if replay.Resumable() {
				return fmt.Errorf("an unfinished sweep is journaled at %s; continue it with 'collect -resume' or delete the journal to start over", journalPath)
			}
			// A sealed (completed) journal from the previous sweep is
			// superseded by this fresh one.
			if err := j.Reset(); err != nil {
				return err
			}
		}
		opts.Journal = j
	} else if *resume {
		return fmt.Errorf("-resume applies to journaled sweeps; adaptive -budget collection is not journaled")
	}

	// SIGINT/SIGTERM wind the collection down at the next task boundary:
	// pools released, journal sealed, task list persisted — then the
	// process exits cleanly with a resume hint.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts.Interrupt = ctx.Done()

	var report *collector.Report
	if *budget > 0 {
		fmt.Fprintf(c.Stdout, "adaptive collection on %s (budget $%.2f, %d candidate scenarios)\n",
			target, *budget, cfg.ScenarioCount())
		report, err = adv.CollectAdaptive(target, cfg, *budget, opts)
	} else if *resume {
		fmt.Fprintf(c.Stdout, "resuming sweep on %s (%d journaled outcomes)\n",
			target, len(opts.Resume.Outcomes))
		report, err = adv.Collect(target, cfg, opts)
	} else {
		fmt.Fprintf(c.Stdout, "collecting %d scenarios on %s (sampler: %s)\n",
			cfg.ScenarioCount(), target, *samplerName)
		report, err = adv.Collect(target, cfg, opts)
	}
	// Persist even when the run failed: completed points already streamed
	// durably through the attached backend, so the task list must record
	// what finished — otherwise a retry would re-run those scenarios and
	// append duplicates to the dataset.
	if perr := c.persistAfterCollect(adv, target); perr != nil && err == nil {
		err = perr
	}
	if errors.Is(err, collector.ErrInterrupted) {
		fmt.Fprintf(c.Stdout, "collection interrupted: %d completed, %d failed, %d skipped so far\n",
			report.Completed, report.Failed, report.Skipped)
		if *budget > 0 {
			fmt.Fprintln(c.Stdout, "remaining scenarios stay pending; re-run with -budget to continue")
		} else {
			fmt.Fprintf(c.Stdout, "journal sealed at %s; continue with 'hpcadvisor collect -resume -c <config>'\n", journalPath)
		}
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(c.Stdout,
		"collection done: %d completed, %d failed, %d skipped\n"+
			"cloud time: %.0f s, collection cost: $%.2f\n",
		report.Completed, report.Failed, report.Skipped,
		report.VirtualSeconds, report.CollectionCostUSD)
	if report.Retries > 0 || report.BreakerSkipped > 0 {
		fmt.Fprintf(c.Stdout, "resilience: %d retries, %d scenarios breaker-skipped\n",
			report.Retries, report.BreakerSkipped)
	}
	if report.Resumed > 0 || report.Rerun > 0 {
		fmt.Fprintf(c.Stdout, "resume: %d scenarios restored from the journal, %d re-run\n",
			report.Resumed, report.Rerun)
	}
	if *parallelPools > 1 && len(report.Lanes) > 0 && report.ElapsedVirtualSeconds < report.VirtualSeconds {
		workers := *parallelPools
		if workers > len(report.Lanes) {
			workers = len(report.Lanes)
		}
		fmt.Fprintf(c.Stdout, "parallel lanes: %d pools x %d workers, concurrent cloud time: %.0f s (%.1fx faster)\n",
			len(report.Lanes), workers, report.ElapsedVirtualSeconds,
			report.VirtualSeconds/report.ElapsedVirtualSeconds)
	}
	return nil
}

// filterFlags registers the shared data-filter flags and returns a builder
// folding them — plus any extra key/value pairs (empty values skipped) —
// into the url.Values consumed by the service layer's shared parse
// functions. The CLI deliberately has no filter parsing of its own: a
// filter means exactly what it means on /advice and /api/v1/advice.
func (c *CLI) filterFlags(fs *flag.FlagSet) func(extra ...string) url.Values {
	app := fs.String("app", "", "filter: application name")
	sku := fs.String("sku", "", "filter: SKU name or alias")
	input := fs.String("input", "", "filter: input description (e.g. atoms=864M)")
	minNodes := fs.String("minnodes", "", "filter: minimum node count")
	maxNodes := fs.String("maxnodes", "", "filter: maximum node count")
	return func(extra ...string) url.Values {
		q := url.Values{}
		set := func(k, v string) {
			if v != "" {
				q.Set(k, v)
			}
		}
		set("app", *app)
		set("sku", *sku)
		set("input", *input)
		set("minnodes", *minNodes)
		set("maxnodes", *maxNodes)
		for i := 0; i+1 < len(extra); i += 2 {
			set(extra[i], extra[i+1])
		}
		return q
	}
}

func (c *CLI) cmdPlot(args []string) error {
	fs := flag.NewFlagSet("plot", flag.ContinueOnError)
	fs.SetOutput(c.Stderr)
	query := c.filterFlags(fs)
	outDir := fs.String("o", ".", "output directory for SVG files")
	ascii := fs.Bool("ascii", false, "print ASCII charts instead of writing SVGs")
	predict := fs.Bool("predict", false, "overlay fitted scaling curves and prediction intervals")
	gridSpec := fs.String("grid", "", "prediction node counts, comma-separated (default: derived)")
	region := fs.String("region", "", "pricing region for predicted points (default "+service.DefaultRegion+")")
	storePath := fs.String("store", "", "dataset store path (.jsonl file or segment directory)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*predict && *gridSpec != "" {
		return fmt.Errorf("-grid requires -predict")
	}
	q := query("region", *region, "grid", *gridSpec)
	if *predict {
		q.Set("pred", "1")
	}
	req, err := service.ParsePlotRequest("", q)
	if err != nil {
		return err
	}
	st, err := c.loadState()
	if err != nil {
		return err
	}
	adv, err := c.advisorFor("", st, c.resolveStore(*storePath))
	if err != nil {
		return err
	}
	defer adv.CloseStore()
	if adv.Store.Len() == 0 {
		return fmt.Errorf("dataset is empty; run 'hpcadvisor collect' first")
	}
	svc := service.New(adv)
	if *ascii {
		set, err := svc.Plots(req)
		if err != nil {
			return err
		}
		for _, p := range set.All() {
			fmt.Fprintln(c.Stdout, plot.RenderASCII(p, 72, 20))
		}
		return nil
	}
	paths, err := svc.WritePlotsSVG(req, *outDir)
	if err != nil {
		return err
	}
	for _, p := range paths {
		fmt.Fprintf(c.Stdout, "wrote %s\n", p)
	}
	return nil
}

func (c *CLI) cmdAdvice(args []string) error {
	fs := flag.NewFlagSet("advice", flag.ContinueOnError)
	fs.SetOutput(c.Stderr)
	query := c.filterFlags(fs)
	sortBy := fs.String("sort", "time", "sort advice by 'time' or 'cost'")
	withRecipes := fs.Bool("recipes", false, "emit a Slurm script and cluster recipe per advice row")
	region := fs.String("region", "", "pricing region for recipes and predictions (default "+service.DefaultRegion+")")
	predict := fs.Bool("predict", false, "merge model-predicted scenarios into the advice (marked in the Source column)")
	gridSpec := fs.String("grid", "", "prediction node counts, comma-separated (default: derived)")
	storePath := fs.String("store", "", "dataset store path (.jsonl file or segment directory)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*predict && *gridSpec != "" {
		return fmt.Errorf("-grid requires -predict")
	}
	st, err := c.loadState()
	if err != nil {
		return err
	}
	adv, err := c.advisorFor("", st, c.resolveStore(*storePath))
	if err != nil {
		return err
	}
	defer adv.CloseStore()
	svc := service.New(adv)
	// recipeRows is what -recipes renders: exactly the measured rows of the
	// front that was just displayed (predicted rows name scenarios that were
	// never run, so there is nothing to write a recipe for).
	var recipeRows []dataset.Point
	if *predict {
		req, err := service.ParsePredictRequest(query("sort", *sortBy, "region", *region, "grid", *gridSpec))
		if err != nil {
			return err
		}
		res, table, _, err := svc.PredictedAdvicePage(req)
		if err != nil {
			return err
		}
		if len(res.Rows) == 0 {
			return fmt.Errorf("no data matches the filter; run 'hpcadvisor collect' first")
		}
		fmt.Fprint(c.Stdout, table)
		for _, r := range res.Rows {
			if !r.Predicted {
				recipeRows = append(recipeRows, r.Point)
			}
		}
		if *withRecipes && len(recipeRows) < len(res.Rows) {
			fmt.Fprintf(c.Stderr, "note: recipes cover the %d measured rows only; predicted rows have no executed scenario to replay\n",
				len(recipeRows))
		}
	} else {
		req, err := service.ParseAdviceRequest(query("sort", *sortBy))
		if err != nil {
			return err
		}
		res, table, err := svc.AdvicePage(req)
		if err != nil {
			return err
		}
		if len(res.Rows) == 0 {
			return fmt.Errorf("no data matches the filter; run 'hpcadvisor collect' first")
		}
		fmt.Fprint(c.Stdout, table)
		recipeRows = res.Rows
	}
	if *withRecipes {
		recipeRegion := *region
		if recipeRegion == "" {
			recipeRegion = service.DefaultRegion
		}
		bundle, err := adv.RecipesFor(recipeRows, recipeRegion)
		if err != nil {
			return err
		}
		fmt.Fprintln(c.Stdout)
		fmt.Fprint(c.Stdout, bundle)
	}
	return nil
}

// cmdPredict serves advice over untested scenarios: the merged
// measured+predicted front plus the leave-one-out backtest that says how
// far the scaling models can be trusted.
func (c *CLI) cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ContinueOnError)
	fs.SetOutput(c.Stderr)
	query := c.filterFlags(fs)
	sortBy := fs.String("sort", "time", "sort advice by 'time' or 'cost'")
	region := fs.String("region", "", "pricing region for predicted points (default "+service.DefaultRegion+")")
	gridSpec := fs.String("grid", "", "prediction node counts, comma-separated (default: derived)")
	storePath := fs.String("store", "", "dataset store path (.jsonl file or segment directory)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	req, err := service.ParsePredictRequest(query("sort", *sortBy, "region", *region, "grid", *gridSpec))
	if err != nil {
		return err
	}
	st, err := c.loadState()
	if err != nil {
		return err
	}
	adv, err := c.advisorFor("", st, c.resolveStore(*storePath))
	if err != nil {
		return err
	}
	defer adv.CloseStore()
	svc := service.New(adv)
	res, table, backtest, err := svc.PredictedAdvicePage(req)
	if err != nil {
		return err
	}
	if len(res.Rows) == 0 {
		return fmt.Errorf("no data matches the filter; run 'hpcadvisor collect' first")
	}
	fmt.Fprint(c.Stdout, table)
	fmt.Fprintln(c.Stdout)
	fmt.Fprintln(c.Stdout, backtest.String())
	return nil
}

// openServing loads the config and state and rehydrates the advisor for
// the long-running serving commands (gui, serve). Callers CloseStore.
func (c *CLI) openServing(cfgPath, storePath string) (*config.Config, *core.Advisor, error) {
	cfg, err := c.requireConfig(cfgPath)
	if err != nil {
		return nil, nil, err
	}
	st, err := c.loadState()
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(c.StateDir, 0o755); err != nil {
		return nil, nil, err
	}
	adv, err := c.advisorFor(cfg.Subscription, st, c.resolveStore(storePath))
	if err != nil {
		return nil, nil, err
	}
	return cfg, adv, nil
}

func (c *CLI) cmdGUI(args []string) error {
	fs := flag.NewFlagSet("gui", flag.ContinueOnError)
	fs.SetOutput(c.Stderr)
	addr := fs.String("addr", ":8199", "listen address")
	cfgPath := fs.String("c", "", "configuration file")
	storePath := fs.String("store", "", "dataset store path (.jsonl file or segment directory)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, adv, err := c.openServing(*cfgPath, *storePath)
	if err != nil {
		return err
	}
	defer adv.CloseStore()
	serve := c.ServeGUI
	if serve == nil {
		serve = func(addr string, adv *core.Advisor, cfg *config.Config) error {
			fmt.Fprintf(c.Stdout, "hpcadvisor GUI listening on %s\n", addr)
			return gui.ListenAndServe(addr, adv, cfg)
		}
	}
	return serve(*addr, adv, cfg)
}

// cmdServe runs the GUI and the versioned JSON API on one address. The
// dataset store resolved from -store is attached to the advisor, so a
// collection started from the GUI streams every point durably through the
// backend while API clients keep reading — each append moves the store
// generation, which both invalidates the query engine's caches and rolls
// the ETag every API response carries.
//
// With a segment-store backend the process is also a replication leader:
// /replica/v1/ ships the write-ahead log to followers. With -follow the
// process is instead a read replica: it mirrors the leader's log into its
// own directory, serves the identical read surface (same generations, same
// ETags), and rejects writes.
func (c *CLI) cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(c.Stderr)
	addr := fs.String("addr", ":8199", "listen address")
	cfgPath := fs.String("c", "", "configuration file")
	storePath := fs.String("store", "", "dataset store path (.jsonl file or segment directory)")
	follow := fs.String("follow", "", "run as a read replica of the leader at this base URL")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *follow != "" {
		return c.serveFollower(*addr, *cfgPath, *storePath, *follow)
	}
	cfg, adv, err := c.openServing(*cfgPath, *storePath)
	if err != nil {
		return err
	}
	defer adv.CloseStore()
	return c.serveHTTP(*addr, ServeMux(adv, cfg))
}

func (c *CLI) serveHTTP(addr string, h http.Handler) error {
	serve := c.ServeHTTP
	if serve == nil {
		serve = func(addr string, h http.Handler) error {
			fmt.Fprintf(c.Stdout, "hpcadvisor API+GUI listening on %s (JSON under /api/v1/)\n", addr)
			ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
			defer stop()
			return api.ListenAndServe(ctx, addr, h)
		}
	}
	return serve(addr, h)
}

// serveFollower runs the read-replica variant of serve: a follower mirrors
// the leader's segment log into the local store directory and the full read
// surface (API, GUI, healthz, metrics) serves from the replicated dataset.
// Generations — and therefore ETags — derive from the replicated log
// position, so responses are interchangeable with the leader's at the same
// position and a load balancer can spray requests across the fleet.
func (c *CLI) serveFollower(addr, cfgPath, storePath, leaderURL string) error {
	cfg, err := c.requireConfig(cfgPath)
	if err != nil {
		return err
	}
	if strings.HasSuffix(storePath, ".jsonl") {
		return fmt.Errorf("-follow replicates a segment store; %q is a jsonl path", storePath)
	}
	if storePath == "" {
		// Deliberately not resolveStore's dataset default: a follower's
		// mirror is leader-owned state and must never collide with a local
		// writable dataset in the same state directory.
		storePath = c.statePath("replica.seg")
	}
	if err := os.MkdirAll(c.StateDir, 0o755); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	fol, err := replica.StartFollower(ctx, leaderURL, storePath, nil)
	if err != nil {
		return err
	}
	adv := core.New(cfg.Subscription)
	adv.SetStore(fol.Store())
	fmt.Fprintf(c.Stdout, "hpcadvisor replica of %s (mirror at %s)\n", leaderURL, storePath)
	return c.serveHTTP(addr, FollowerMux(adv, cfg, fol))
}

// ServeMux composes the API and GUI route tables on one mux: the JSON API
// owns /api/v1/, /healthz, and /metrics; the GUI serves everything else.
// Both read through one advisor and one query engine, and both default
// predictions to the configured deployment region, so they can never
// disagree about the dataset or price identical requests differently.
// An advisor writing through a segment store additionally serves the
// replication protocol under /replica/v1/.
func ServeMux(adv *core.Advisor, cfg *config.Config) *http.ServeMux {
	svc := service.NewWithRegion(adv, cfg.Region)
	mux := http.NewServeMux()
	if seg, ok := adv.Backend.(*storage.SegmentStore); ok {
		svc.SetReplication(func() service.ReplicationStatus {
			return service.ReplicationStatus{Role: "leader", Synced: true}
		})
		mux.Handle("/replica/v1/", replica.NewLeader(seg).Mux())
	}
	apiMux := api.New(svc).Mux()
	mux.Handle("/api/v1/", apiMux)
	mux.Handle("/healthz", apiMux)
	mux.Handle("/metrics", apiMux)
	mux.Handle("/", gui.NewServer(adv, cfg).Mux())
	return mux
}

// FollowerMux composes the read-replica route table: the identical API and
// GUI read surface over the replicated dataset, the follower's replication
// status endpoint, and a write guard in front of the GUI's mutating
// handlers.
func FollowerMux(adv *core.Advisor, cfg *config.Config, fol *replica.Follower) *http.ServeMux {
	svc := service.NewWithRegion(adv, cfg.Region)
	svc.SetReplication(func() service.ReplicationStatus {
		st := fol.Status()
		return service.ReplicationStatus{
			Role:         "follower",
			LeaderURL:    st.LeaderURL,
			Applied:      st.Applied,
			LeaderPoints: st.LeaderPoints,
			Lag:          st.Lag,
			Synced:       st.Synced,
			Fault:        st.Fault,
		}
	})
	apiMux := api.New(svc).Mux()
	mux := http.NewServeMux()
	mux.Handle("/api/v1/", apiMux)
	mux.Handle("/healthz", apiMux)
	mux.Handle("/metrics", apiMux)
	mux.Handle("GET /replica/v1/status", fol.StatusHandler())
	mux.Handle("/", replica.ReadOnly(gui.NewServer(adv, cfg).Mux()))
	return mux
}

// cmdDataset manages the dataset store itself: describe it, compact the
// segment log, or convert between the jsonl and segment formats.
func (c *CLI) cmdDataset(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("dataset needs a subcommand: info, compact, or convert")
	}
	sub := args[0]
	fs := flag.NewFlagSet("dataset "+sub, flag.ContinueOnError)
	fs.SetOutput(c.Stderr)
	storePath := fs.String("store", "", "dataset store path (.jsonl file or segment directory)")
	to := fs.String("to", "", "convert: destination store path")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	path := c.resolveStore(*storePath)
	switch sub {
	case "info":
		b, err := storage.OpenBackend(path)
		if err != nil {
			return err
		}
		defer b.Close()
		if b.Format() == storage.FormatSegment {
			// Best-effort load so the report reflects the real serve
			// path on this machine (mmap vs heap fallback); a corrupt
			// store still prints its on-disk state.
			_, _ = b.Load()
		}
		info, err := b.Info()
		if err != nil {
			return err
		}
		fmt.Fprint(c.Stdout, info.String())
		return nil
	case "compact":
		b, err := storage.OpenBackend(path)
		if err != nil {
			return err
		}
		defer b.Close()
		if err := b.Compact(); err != nil {
			if errors.Is(err, storage.ErrNoCompaction) {
				return fmt.Errorf("%s is a %s store; compaction applies to segment stores ('dataset convert' first)", path, b.Format())
			}
			return err
		}
		info, err := b.Info()
		if err != nil {
			return err
		}
		fmt.Fprintf(c.Stdout, "compacted %s: %d points in sorted snapshot segment\n", path, info.SnapshotPoints)
		return nil
	case "convert":
		if *to == "" {
			return fmt.Errorf("dataset convert requires -to destination")
		}
		n, err := storage.Convert(path, *to)
		if err != nil {
			return err
		}
		fmt.Fprintf(c.Stdout, "converted %d points: %s (%s) -> %s (%s)\n",
			n, path, storage.DetectFormat(path), *to, storage.DetectFormat(*to))
		return nil
	}
	return fmt.Errorf("unknown dataset subcommand %q (want info, compact, or convert)", sub)
}

func (c *CLI) cmdApps() error {
	adv := core.New("enumeration")
	fmt.Fprintf(c.Stdout, "%-10s %s\n", "NAME", "DESCRIPTION")
	for _, name := range adv.Apps.Names() {
		a, err := adv.Apps.Get(name)
		if err != nil {
			return err
		}
		var defaults []string
		for k, v := range a.DefaultInput() {
			defaults = append(defaults, k+"="+v)
		}
		fmt.Fprintf(c.Stdout, "%-10s %s (defaults: %s)\n", name, a.Description(), strings.Join(defaults, " "))
	}
	return nil
}

func (c *CLI) requireConfig(path string) (*config.Config, error) {
	if path == "" {
		return nil, fmt.Errorf("a configuration file is required (-c config.yaml)")
	}
	return config.Load(path)
}
