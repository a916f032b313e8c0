// Package service is the transport-agnostic request layer between the
// front ends and the query engine. It owns everything that used to be
// scattered across GUI handlers and CLI subcommands: parsing and validating
// filter/sort/predict parameters into canonical dataset.Filter + option
// structs (parse.go), typed errors separating caller mistakes from missing
// resources and server faults (errors.go), and the request execution
// itself. The HTML GUI, the versioned JSON API, and the terminal commands
// are three renderings of the results produced here — none of them touches
// the query engine directly for request-shaped work.
package service

import (
	"encoding/json"
	"sort"
	"strconv"

	"hpcadvisor/internal/core"
	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/monitor"
	"hpcadvisor/internal/pareto"
	"hpcadvisor/internal/plot"
	"hpcadvisor/internal/predictor"
	"hpcadvisor/internal/queryengine"
	"hpcadvisor/internal/scenario"
	"hpcadvisor/internal/storage"
)

// DefaultRegion prices predictions when a request names no region.
const DefaultRegion = "southcentralus"

// Service executes parsed requests against one advisor's query engine. It
// holds no mutable state and is safe for concurrent use — every read goes
// through the engine's immutable snapshots and memoized results.
type Service struct {
	adv           *core.Advisor
	defaultRegion string

	// replication, when set (at wiring time, before serving starts), reports
	// the process's role in a replicated fleet for /healthz and /metrics.
	replication func() ReplicationStatus
}

// ReplicationStatus is a serving process's position in a replicated fleet,
// reported by whatever replication machinery the process runs (the service
// layer stays transport- and protocol-agnostic).
type ReplicationStatus struct {
	// Role is "leader" (writable, shipping its log) or "follower"
	// (read-only, applying a leader's log). Processes without replication
	// report no status at all.
	Role      string `json:"role"`
	LeaderURL string `json:"leader_url,omitempty"`
	// Applied and LeaderPoints are log positions in points; Lag is their gap
	// at the last sync. All zero on a leader.
	Applied      int  `json:"applied_points,omitempty"`
	LeaderPoints int  `json:"leader_points,omitempty"`
	Lag          int  `json:"lag_points"`
	Synced       bool `json:"synced"`
	// Fault marks a follower that stopped replicating (permanent
	// divergence); it still serves its last-good dataset.
	Fault string `json:"fault,omitempty"`
}

// SetReplication installs the fleet-status provider. Call before the mux
// starts serving; a nil provider (the default) means standalone.
func (s *Service) SetReplication(fn func() ReplicationStatus) { s.replication = fn }

// Replication reports the fleet status, or ok=false for a standalone
// process.
func (s *Service) Replication() (ReplicationStatus, bool) {
	if s.replication == nil {
		return ReplicationStatus{}, false
	}
	return s.replication(), true
}

// New builds a service pricing predictions in DefaultRegion when a request
// names none.
func New(adv *core.Advisor) *Service { return NewWithRegion(adv, "") }

// NewWithRegion builds a service whose predictions default to region when
// a request names none. The serving commands pass the deployment's
// configured region, so the HTML and JSON transports on one mux price
// identical requests identically; empty falls back to DefaultRegion.
func NewWithRegion(adv *core.Advisor, region string) *Service {
	if region == "" {
		region = DefaultRegion
	}
	return &Service{adv: adv, defaultRegion: region}
}

// Advisor exposes the underlying advisor for transports that also drive
// mutations (the GUI's deploy/collect pages).
func (s *Service) Advisor() *core.Advisor { return s.adv }

// AdviceRequest asks for the Pareto front over the filtered dataset.
type AdviceRequest struct {
	Filter dataset.Filter
	Order  pareto.SortOrder
}

// PredictRequest asks for the merged measured+predicted front (and its
// backtest) over the filtered dataset.
type PredictRequest struct {
	Filter dataset.Filter
	Order  pareto.SortOrder
	// Region prices synthesized points; empty means DefaultRegion.
	Region string
	// Grid is the node counts to predict at; empty derives from the data.
	Grid []int
}

// PlotRequest asks for one named plot, optionally with the prediction
// overlay.
type PlotRequest struct {
	Name      string
	Filter    dataset.Filter
	Predicted bool
	// Region and Grid configure the overlay; ignored unless Predicted.
	Region string
	Grid   []int
}

// AdviceResult is the Pareto front plus the store generation it was served
// at — the API's ETag and the invariant tying a response to one snapshot.
type AdviceResult struct {
	Generation uint64          `json:"generation"`
	Rows       []dataset.Point `json:"rows"`
}

// PredictedResult is the merged front with provenance markings.
type PredictedResult struct {
	Generation uint64          `json:"generation"`
	Rows       []predictor.Row `json:"rows"`
}

// DatasetInfo describes the served dataset: size, distinct dimensions, and
// (when a persistent store is attached) the on-disk state.
type DatasetInfo struct {
	Generation uint64        `json:"generation"`
	Points     int           `json:"points"`
	Apps       []string      `json:"apps"`
	SKUs       []string      `json:"skus"`
	Inputs     []string      `json:"inputs"`
	Storage    *storage.Info `json:"storage,omitempty"`
}

// DeploymentScenarios is one deployment's scenario task list. Tasks are
// copies taken under the advisor's registry lock, never the live structs a
// collection mutates.
type DeploymentScenarios struct {
	Deployment string          `json:"deployment"`
	Tasks      []scenario.Task `json:"tasks"`
}

func (s *Service) engine() *queryengine.Engine { return s.adv.Engine() }

// Generation returns the current dataset generation — the value the API
// folds into ETags. Any append changes it, so revalidation against it is
// exact.
func (s *Service) Generation() uint64 {
	return s.engine().Generation()
}

// AdvicePage returns the Pareto front for the request and its table,
// rendered exactly as the paper's Listings 3-4, from one pinned snapshot:
// Generation names exactly the state the rows came from, and the row count
// and the table can never disagree, even mid-append. Empty rows are a valid
// result (nothing matched), not an error — transports choose how to render
// emptiness.
func (s *Service) AdvicePage(req AdviceRequest) (AdviceResult, string, error) {
	eng := s.engine()
	sn := eng.Snapshot()
	res := AdviceResult{
		Generation: sn.Generation(),
		Rows:       eng.Advice(sn, req.Filter, req.Order),
	}
	return res, eng.AdviceTable(sn, req.Filter, req.Order), nil
}

// AdviceResponse is the wire envelope of /api/v1/advice.
type AdviceResponse struct {
	Generation uint64          `json:"generation"`
	Sort       string          `json:"sort"`
	Count      int             `json:"count"`
	Rows       []dataset.Point `json:"rows"`
}

// OrderName renders the canonical name of a sort order ("time" or "cost").
func OrderName(o pareto.SortOrder) string {
	if o == pareto.ByCost {
		return "cost"
	}
	return "time"
}

// AdviceJSON returns the encoded /api/v1/advice body plus the generation
// it was rendered at, memoized per (filter, order, generation) through the
// query engine — the API's hot response is rendered once per generation
// and then served as shared bytes, so the JSON path sustains engine-level
// throughput. The body, its embedded generation field, and the returned
// generation all come from the same pinned snapshot, so the API's ETag can
// never disagree with the bytes under it. The returned bytes are shared
// with the cache and must not be modified.
func (s *Service) AdviceJSON(req AdviceRequest) ([]byte, uint64, error) {
	eng := s.engine()
	sn := eng.Snapshot()
	v := eng.Cached(sn, "service.advicejson", req.Filter, OrderName(req.Order), func(sn *dataset.Snapshot) any {
		// Hot filters skip encoding/json entirely: the snapshot holds the
		// front rows pre-serialized, and only the tiny envelope is stitched
		// around them. The stitch is byte-identical to the reflect marshal
		// below (TestAdviceJSONStitchedEqualsMarshal pins it), so clients
		// and the ETag machinery cannot tell which path rendered a body.
		c := req.Filter.Canonical()
		if rowsJSON, count, ok := sn.HotAdviceJSON(&c, req.Order == pareto.ByCost); ok {
			return stitchAdviceJSON(sn.Generation(), OrderName(req.Order), count, rowsJSON)
		}
		rows := pareto.Advice(sn.Select(req.Filter), req.Order)
		if rows == nil {
			rows = []dataset.Point{}
		}
		data, err := json.Marshal(AdviceResponse{
			Generation: sn.Generation(),
			Sort:       OrderName(req.Order),
			Count:      len(rows),
			Rows:       rows,
		})
		if err != nil {
			return err
		}
		return data
	})
	if err, ok := v.(error); ok {
		return nil, 0, Internalf(err, "encoding advice")
	}
	return v.([]byte), sn.Generation(), nil
}

// stitchAdviceJSON renders the AdviceResponse envelope around a
// pre-serialized rows fragment without reflection. The field order and
// byte layout match json.Marshal of the struct exactly; sort names are
// fixed tokens ("time"/"cost"), so no escaping is needed.
func stitchAdviceJSON(gen uint64, sortName string, count int, rowsJSON []byte) []byte {
	buf := make([]byte, 0, len(rowsJSON)+len(sortName)+48)
	buf = append(buf, `{"generation":`...)
	buf = strconv.AppendUint(buf, gen, 10)
	buf = append(buf, `,"sort":"`...)
	buf = append(buf, sortName...)
	buf = append(buf, `","count":`...)
	buf = strconv.AppendInt(buf, int64(count), 10)
	buf = append(buf, `,"rows":`...)
	buf = append(buf, rowsJSON...)
	return append(buf, '}')
}

// PredictedResponse is the wire envelope of /api/v1/predicted-advice: the
// merged front with provenance markings plus the backtest that bounds how
// far to trust it, both computed from one snapshot.
type PredictedResponse struct {
	Generation uint64                   `json:"generation"`
	Sort       string                   `json:"sort"`
	Count      int                      `json:"count"`
	Rows       []predictor.Row          `json:"rows"`
	Backtest   predictor.BacktestReport `json:"backtest"`
}

// PredictedAdviceJSON returns the encoded /api/v1/predicted-advice body
// plus its generation, memoized like AdviceJSON. Rows and backtest are
// derived from the same pinned snapshot, so they can never mix
// generations.
func (s *Service) PredictedAdviceJSON(req PredictRequest) ([]byte, uint64, error) {
	eng := s.engine()
	sn := eng.Snapshot()
	cfg := s.predictorConfig(req.Region, req.Grid)
	extra := OrderName(req.Order) + "|" + cfg.Key()
	v := eng.Cached(sn, "service.predjson", req.Filter, extra, func(sn *dataset.Snapshot) any {
		rows := eng.PredictedAdvice(sn, req.Filter, req.Order, cfg)
		if rows == nil {
			rows = []predictor.Row{}
		}
		data, err := json.Marshal(PredictedResponse{
			Generation: sn.Generation(),
			Sort:       OrderName(req.Order),
			Count:      len(rows),
			Rows:       rows,
			Backtest:   eng.Backtest(sn, req.Filter, cfg),
		})
		if err != nil {
			return err
		}
		return data
	})
	if err, ok := v.(error); ok {
		return nil, 0, Internalf(err, "encoding predicted advice")
	}
	return v.([]byte), sn.Generation(), nil
}

// predictorConfig resolves the request's prediction options against the
// advisor's price book.
func (s *Service) predictorConfig(region string, grid []int) predictor.Config {
	if region == "" {
		region = s.defaultRegion
	}
	return s.adv.PredictorConfig(region, grid)
}

// PredictedAdvicePage returns the merged front, its rendered table, and
// the backtest, all from one pinned snapshot — a page composed of the
// three can never mix generations.
func (s *Service) PredictedAdvicePage(req PredictRequest) (PredictedResult, string, predictor.BacktestReport, error) {
	eng := s.engine()
	sn := eng.Snapshot()
	cfg := s.predictorConfig(req.Region, req.Grid)
	res := PredictedResult{
		Generation: sn.Generation(),
		Rows:       eng.PredictedAdvice(sn, req.Filter, req.Order, cfg),
	}
	table := eng.PredictedAdviceTable(sn, req.Filter, req.Order, cfg)
	return res, table, eng.Backtest(sn, req.Filter, cfg), nil
}

// PlotNames lists the valid plot names, in presentation order.
func PlotNames() []string { return plot.SetNames }

// Plots returns the full plot set for the request's filter (the CLI's
// ASCII path); with Predicted it carries the overlay series.
func (s *Service) Plots(req PlotRequest) (plot.Set, error) {
	eng := s.engine()
	sn := eng.Snapshot()
	if req.Predicted {
		return eng.PredictedPlotSet(sn, req.Filter, s.predictorConfig(req.Region, req.Grid)), nil
	}
	return eng.PlotSet(sn, req.Filter), nil
}

// PlotSVG renders the named plot as SVG bytes from the engine's SVG cache,
// pinned to one snapshot whose generation is returned alongside the bytes.
// Unknown names are KindNotFound; a render failure on a valid name is
// KindInternal — transports must not collapse the two.
func (s *Service) PlotSVG(req PlotRequest) ([]byte, uint64, error) {
	if _, ok := (plot.Set{}).ByName(req.Name); !ok {
		return nil, 0, NotFoundf("unknown plot %q (want one of %v)", req.Name, plot.SetNames)
	}
	eng := s.engine()
	sn := eng.Snapshot()
	var data []byte
	var err error
	if req.Predicted {
		data, err = eng.PredictedSVG(sn, req.Name, req.Filter, s.predictorConfig(req.Region, req.Grid))
	} else {
		data, err = eng.SVG(sn, req.Name, req.Filter)
	}
	if err != nil {
		return nil, 0, Internalf(err, "rendering plot %q", req.Name)
	}
	return data, sn.Generation(), nil
}

// WritePlotsSVG renders the request's full plot set into dir — one .svg
// per canonical plot name — and returns the written paths. It shares
// core's single write loop, so the CLI, the Go API, and examples emit
// identical artifacts.
func (s *Service) WritePlotsSVG(req PlotRequest, dir string) ([]string, error) {
	if req.Predicted {
		return s.adv.WritePredictedPlotsSVG(dir, req.Filter, s.predictorConfig(req.Region, req.Grid))
	}
	return s.adv.WritePlotsSVG(dir, req.Filter)
}

// Dataset describes the served dataset at its current generation.
func (s *Service) Dataset() (DatasetInfo, error) {
	sn := s.engine().Snapshot()
	info := DatasetInfo{
		Generation: sn.Generation(),
		Points:     sn.Len(),
		Apps:       sn.Apps(),
		SKUs:       sn.SKUAliases(),
		Inputs:     sn.Inputs(),
	}
	if b := s.adv.Backend; b != nil {
		si, err := b.Info()
		if err != nil {
			return DatasetInfo{}, Internalf(err, "reading storage info")
		}
		info.Storage = &si
	}
	return info, nil
}

// Scenarios returns every deployment's scenario task list, sorted by
// deployment name. Deployments without a started collection are omitted.
// Task states are copied under the advisor's registry lock, so marshaling
// the result can never race a live collection.
func (s *Service) Scenarios() ([]DeploymentScenarios, error) {
	var out []DeploymentScenarios
	for _, name := range s.adv.Deployments() {
		tasks := s.adv.ScenarioTasks(name)
		if tasks == nil {
			continue
		}
		out = append(out, DeploymentScenarios{Deployment: name, Tasks: tasks})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Deployment < out[j].Deployment })
	return out, nil
}

// EngineStats exposes the query engine's cache counters for /metrics.
func (s *Service) EngineStats() queryengine.Stats {
	return s.engine().Stats()
}

// CollectionStats snapshots the advisor's collection-resilience counters
// (attempts by failure class, retries, breaker state, resume accounting)
// for /metrics.
func (s *Service) CollectionStats() monitor.CollectionSnapshot {
	return s.adv.Collection.Snapshot()
}
