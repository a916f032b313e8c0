package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/fsatomic"
	"hpcadvisor/internal/scenario"
)

// Tracing is outside-in: nothing inside the program is instrumented. The
// traced run wraps the calls into each layer's public surface —
//
//   - a harness-owned http.Handler around cli.ServeMux times the server
//     side of every request (api and everything below it), so a request's
//     http self time is its round trip minus that handler time;
//   - a dataset.Sink wrapper, attached with Store.Attach in place of the
//     storage backend it forwards to, times every WAL append and sync;
//   - CollectOptions.Progress timestamps time every scenario;
//   - spans around storage.Open, Store.Snapshot and the first response
//     time a cold open —
//
// and reads counts from /metrics and from runtime and getrusage deltas.
// Spans carry an id and their parent's id, stay in memory, and are written
// out when the run ends.

const (
	hdrSlot = "X-Perfbench-Slot"
	hdrReq  = "X-Perfbench-Req"
)

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	Dur    int64  `json:"dur_ns"`
}

// maxSpans caps the span log; later spans are counted, not kept.
const maxSpans = 1 << 17

type spanLog struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span // guarded-by: mu
	dropped int    // guarded-by: mu
}

func (l *spanLog) add(id, parent uint64, name string, start time.Time, d time.Duration) {
	l.mu.Lock()
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: int64(start.Sub(l.t0)), Dur: int64(d)})
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// write stores the spans as JSON lines at path.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			return err
		}
	}
	if l.dropped > 0 {
		fmt.Fprintf(w, "{\"dropped_spans\":%d}\n", l.dropped)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return fsatomic.WriteFile(path, b.Bytes(), 0o644)
}

// handlerSlot passes one request's handler time from the server wrapper to
// the client that sent it: each client owns a slot and has one request in
// flight at a time.
type handlerSlot struct {
	id  atomic.Uint64
	dur atomic.Int64
}

// tracer is the state of one traced pass.
type tracer struct {
	ids   atomic.Uint64
	spans *spanLog
	slots []handlerSlot
}

func newTracer(spans *spanLog, clients int) *tracer {
	return &tracer{spans: spans, slots: make([]handlerSlot, clients)}
}

func (t *tracer) nextID() uint64 { return t.ids.Add(1) }

// handlerTime returns the server-side handler time of request id sent from
// slot. The wrapper records it before the response's final bytes leave
// the server, so it is normally already there; the bounded wait only
// covers a scheduler delay between the two goroutines.
func (t *tracer) handlerTime(slot int, id uint64) time.Duration {
	s := &t.slots[slot]
	for i := 0; i < 100000 && s.id.Load() != id; i++ {
		yield()
	}
	if s.id.Load() != id {
		return 0
	}
	return time.Duration(s.dur.Load())
}

// traceHandler is the harness-owned wrapper around the program's mux in
// traced passes; untraced passes serve the mux directly.
type traceHandler struct {
	next http.Handler
	tr   *tracer
}

func (h *traceHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr
	start := now()
	h.next.ServeHTTP(w, r)
	d := now().Sub(start)
	parent, _ := strconv.ParseUint(r.Header.Get(hdrReq), 10, 64)
	tr.spans.add(tr.nextID(), parent, "api.handler", start, d)
	if slot, err := strconv.Atoi(r.Header.Get(hdrSlot)); err == nil && slot >= 0 && slot < len(tr.slots) {
		s := &tr.slots[slot]
		s.dur.Store(int64(d))
		s.id.Store(parent)
	}
}

// timedSink wraps the storage backend's write-through path. It is attached
// with Store.Attach in place of the backend, which it forwards to, so every
// append the collector makes is timed at the dataset/storage seam.
type timedSink struct {
	next   dataset.Sink
	tr     *tracer
	parent func() uint64 // the scenario span an append belongs to
	mu     sync.Mutex
	append hist          // guarded-by: mu
	busy   time.Duration // guarded-by: mu; appends plus syncs
}

func (s *timedSink) Append(p dataset.Point) error {
	start := now()
	err := s.next.Append(p)
	d := now().Sub(start)
	s.mu.Lock()
	s.append.record(int64(d))
	s.busy += d
	s.mu.Unlock()
	s.tr.spans.add(s.tr.nextID(), s.parent(), "storage.append", start, d)
	return err
}

func (s *timedSink) Sync() error {
	start := now()
	err := s.next.Sync()
	d := now().Sub(start)
	s.mu.Lock()
	s.busy += d
	s.mu.Unlock()
	s.tr.spans.add(s.tr.nextID(), s.parent(), "storage.sync", start, d)
	return err
}

// scenarioTimer turns Progress events into per-scenario wall times: from a
// task's first running event to its terminal one.
type scenarioTimer struct {
	tr      *tracer
	round   uint64
	mu      sync.Mutex
	started map[*scenario.Task]time.Time // guarded-by: mu
	ids     map[*scenario.Task]uint64    // guarded-by: mu
	current atomic.Uint64                // span id of the scenario in flight
	times   hist                         // guarded-by: mu
}

func newScenarioTimer(tr *tracer, round uint64) *scenarioTimer {
	return &scenarioTimer{tr: tr, round: round, started: map[*scenario.Task]time.Time{}, ids: map[*scenario.Task]uint64{}}
}

// progress is the CollectOptions.Progress hook.
func (s *scenarioTimer) progress(t *scenario.Task) {
	at := now()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch t.Status {
	case scenario.StatusRunning:
		if _, ok := s.started[t]; !ok {
			s.started[t] = at
			id := s.tr.nextID()
			s.ids[t] = id
			s.current.Store(id)
		}
	case scenario.StatusCompleted, scenario.StatusFailed, scenario.StatusSkipped:
		if t0, ok := s.started[t]; ok {
			d := at.Sub(t0)
			s.times.record(int64(d))
			s.tr.spans.add(s.ids[t], s.round, "collector.scenario", t0, d)
			delete(s.started, t)
			delete(s.ids, t)
		}
	}
}

// scrapeMetrics reads the program's /metrics counters.
func scrapeMetrics(c *client) (map[string]float64, error) {
	r, err := c.do("/metrics", "", nil, clsDataset, time.Time{})
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", r.status)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(r.body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		out[name] = v
	}
	return out, nil
}
