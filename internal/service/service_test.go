package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"hpcadvisor/internal/core"
	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/pareto"
)

func seededAdvisor(t testing.TB) *core.Advisor {
	t.Helper()
	adv := core.New("svc-test")
	for i := 0; i < 40; i++ {
		adv.Store.Add(dataset.Point{
			ScenarioID:  fmt.Sprintf("s-%d", i),
			AppName:     []string{"lammps", "openfoam"}[i%2],
			SKU:         []string{"Standard_HB120rs_v3", "Standard_HC44rs"}[i%2],
			SKUAlias:    []string{"hb120rs_v3", "hc44rs"}[i%2],
			NNodes:      1 << (i % 4),
			PPN:         100,
			InputDesc:   "atoms=864M",
			ExecTimeSec: float64(1000 / (1 + i%4)),
			CostUSD:     float64(1+i%4) * 0.5,
		})
	}
	return adv
}

func TestParseFilter(t *testing.T) {
	cases := []struct {
		name  string
		query string
		want  dataset.Filter
		bad   bool
	}{
		{name: "empty", query: "", want: dataset.Filter{}},
		{name: "full", query: "app=lammps&sku=hb120rs_v3&input=atoms%3D864M&minnodes=2&maxnodes=8",
			want: dataset.Filter{AppName: "lammps", SKU: "hb120rs_v3", InputDesc: "atoms=864M", MinNodes: 2, MaxNodes: 8}},
		{name: "junk minnodes", query: "minnodes=abc", bad: true},
		{name: "zero minnodes", query: "minnodes=0", bad: true},
		{name: "negative maxnodes", query: "maxnodes=-1", bad: true},
		{name: "inverted range", query: "minnodes=8&maxnodes=2", bad: true},
		{name: "ampersand in app survives", query: "app=my%26app", want: dataset.Filter{AppName: "my&app"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := url.ParseQuery(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			f, err := ParseFilter(q)
			if tc.bad {
				if err == nil {
					t.Fatalf("ParseFilter(%q) succeeded, want bad request", tc.query)
				}
				if KindOf(err) != KindBadRequest {
					t.Fatalf("kind = %v, want bad request", KindOf(err))
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseFilter(%q): %v", tc.query, err)
			}
			if !reflect.DeepEqual(f, tc.want) {
				t.Fatalf("ParseFilter(%q) = %+v, want %+v", tc.query, f, tc.want)
			}
		})
	}
}

func TestParseOrderAndGrid(t *testing.T) {
	if o, err := ParseOrder(""); err != nil || o != pareto.ByTime {
		t.Fatalf("empty order = %v, %v", o, err)
	}
	if o, err := ParseOrder("cost"); err != nil || o != pareto.ByCost {
		t.Fatalf("cost order = %v, %v", o, err)
	}
	if _, err := ParseOrder("sideways"); KindOf(err) != KindBadRequest {
		t.Fatalf("bad order kind = %v, want bad request", KindOf(err))
	}
	if g, err := ParseGrid(" 1, 2 ,4"); err != nil || !reflect.DeepEqual(g, []int{1, 2, 4}) {
		t.Fatalf("grid = %v, %v", g, err)
	}
	if g, err := ParseGrid("  "); err != nil || g != nil {
		t.Fatalf("blank grid = %v, %v", g, err)
	}
	if g, err := ParseGrid("1,4096"); err != nil || !reflect.DeepEqual(g, []int{1, MaxGridNodes}) {
		t.Fatalf("grid at the node cap = %v, %v", g, err)
	}
	for _, bad := range []string{"1,zero", "0", "-3", "1,,2", "4097", strings.Repeat("1,", MaxGridEntries) + "1"} {
		if _, err := ParseGrid(bad); KindOf(err) != KindBadRequest {
			t.Fatalf("grid %q kind = %v, want bad request", bad, KindOf(err))
		}
	}
}

func TestParsePlotRequestPredFlag(t *testing.T) {
	for s, want := range map[string]bool{"": false, "0": false, "1": true, "true": true} {
		req, err := ParsePlotRequest("pareto", url.Values{"pred": {s}})
		if err != nil || req.Predicted != want {
			t.Fatalf("pred=%q -> %v, %v (want %v)", s, req.Predicted, err, want)
		}
	}
	if _, err := ParsePlotRequest("pareto", url.Values{"pred": {"maybe"}}); KindOf(err) != KindBadRequest {
		t.Fatal("pred=maybe should be a bad request")
	}
}

func TestErrorKinds(t *testing.T) {
	if KindOf(BadRequestf("x")) != KindBadRequest {
		t.Error("BadRequestf kind")
	}
	if KindOf(NotFoundf("x")) != KindNotFound {
		t.Error("NotFoundf kind")
	}
	cause := errors.New("boom")
	err := Internalf(cause, "rendering")
	if KindOf(err) != KindInternal || !errors.Is(err, cause) {
		t.Error("Internalf kind or unwrap")
	}
	// Arbitrary errors classify as internal.
	if KindOf(errors.New("nope")) != KindInternal {
		t.Error("plain error should be internal")
	}
	// Wrapped service errors keep their kind through fmt wrapping.
	if KindOf(fmt.Errorf("ctx: %w", NotFoundf("gone"))) != KindNotFound {
		t.Error("wrapped kind lost")
	}
}

// TestAdviceMatchesAdvisor pins the service to the advisor's own advice
// path: one code path, two entry points.
func TestAdviceMatchesAdvisor(t *testing.T) {
	adv := seededAdvisor(t)
	svc := New(adv)
	for _, q := range []string{"", "app=lammps", "sku=hc44rs&sort=cost", "minnodes=2&maxnodes=8"} {
		vals, _ := url.ParseQuery(q)
		req, err := ParseAdviceRequest(vals)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		res, table, err := svc.AdvicePage(req)
		if err != nil {
			t.Fatalf("advice %q: %v", q, err)
		}
		want := adv.Advice(req.Filter, req.Order)
		if !reflect.DeepEqual(res.Rows, want) {
			t.Fatalf("service advice for %q diverges from advisor", q)
		}
		if res.Generation != adv.Store.Generation() {
			t.Fatalf("generation = %d, want %d", res.Generation, adv.Store.Generation())
		}
		if table != adv.AdviceTable(req.Filter, req.Order) {
			t.Fatalf("table diverges for %q", q)
		}
	}
}

func TestPlotSVGTypedErrors(t *testing.T) {
	adv := seededAdvisor(t)
	svc := New(adv)
	if _, _, err := svc.PlotSVG(PlotRequest{Name: "nonsense"}); KindOf(err) != KindNotFound {
		t.Fatalf("unknown plot kind = %v, want not found", KindOf(err))
	}
	data, gen, err := svc.PlotSVG(PlotRequest{Name: "pareto"})
	if err != nil || !strings.HasPrefix(string(data), "<svg") {
		t.Fatalf("pareto plot = %v, %.20q", err, data)
	}
	if gen != adv.Store.Generation() {
		t.Fatalf("plot generation = %d, want %d", gen, adv.Store.Generation())
	}
	// The overlay path renders too, with the default region applied.
	data, _, err = svc.PlotSVG(PlotRequest{Name: "exectime_vs_nodes", Predicted: true})
	if err != nil || !strings.HasPrefix(string(data), "<svg") {
		t.Fatalf("predicted plot = %v", err)
	}
}

func TestDatasetInfo(t *testing.T) {
	adv := seededAdvisor(t)
	svc := New(adv)
	info, err := svc.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if info.Points != adv.Store.Len() || info.Generation != adv.Store.Generation() {
		t.Fatalf("info = %+v", info)
	}
	if !reflect.DeepEqual(info.Apps, []string{"lammps", "openfoam"}) {
		t.Fatalf("apps = %v", info.Apps)
	}
	if !reflect.DeepEqual(info.SKUs, []string{"hb120rs_v3", "hc44rs"}) {
		t.Fatalf("skus = %v", info.SKUs)
	}
	if !reflect.DeepEqual(info.Inputs, []string{"atoms=864M"}) {
		t.Fatalf("inputs = %v", info.Inputs)
	}
	if info.Storage != nil {
		t.Fatal("in-memory advisor should have no storage info")
	}
}

func TestGenerationMovesWithAppends(t *testing.T) {
	adv := seededAdvisor(t)
	svc := New(adv)
	before := svc.Generation()
	adv.Store.Add(dataset.Point{ScenarioID: "x", AppName: "lammps", SKU: "s", SKUAlias: "s", NNodes: 1, ExecTimeSec: 1, CostUSD: 1})
	if after := svc.Generation(); after == before {
		t.Fatal("generation did not move on append")
	}
}

// The hot-filter serving path stitches a hand-built envelope around the
// snapshot's pre-serialized rows; the cold path reflect-marshals the same
// struct. The two must be byte-identical for every filter shape — hot,
// cold, and empty-result — or ETagged bodies would differ by which path
// rendered them.
func TestAdviceJSONStitchedEqualsMarshal(t *testing.T) {
	adv := seededAdvisor(t)
	svc := New(adv)
	queries := []string{
		"",                          // hot: unfiltered
		"app=lammps",                // hot: per-app
		"sku=hc44rs",                // hot: per-alias
		"input=atoms%3D864M",        // hot: per-input
		"app=lammps&sort=cost",      // hot, cost order
		"app=lammps&sku=hb120rs_v3", // cold: two fields
		"app=nosuchapp",             // empty result
		"minnodes=2&maxnodes=8",     // cold: scan path
	}
	for _, q := range queries {
		vals, err := url.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		req, err := ParseAdviceRequest(vals)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		body, gen, err := svc.AdviceJSON(req)
		if err != nil {
			t.Fatalf("advice json %q: %v", q, err)
		}
		rows := pareto.Advice(adv.Store.SelectScan(req.Filter), req.Order)
		if rows == nil {
			rows = []dataset.Point{}
		}
		want, err := json.Marshal(AdviceResponse{
			Generation: gen,
			Sort:       OrderName(req.Order),
			Count:      len(rows),
			Rows:       rows,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("query %q: served body diverges from reflect marshal\n got: %s\nwant: %s", q, body, want)
		}
	}
}

// stitchAdviceJSON must track json.Marshal of the envelope struct exactly,
// including numeric edge values.
func TestStitchAdviceJSONEnvelope(t *testing.T) {
	rows := []byte(`[{"x":1}]`)
	for _, tc := range []struct {
		gen   uint64
		sort  string
		count int
	}{
		{0, "time", 0},
		{1, "cost", 1},
		{18446744073709551615, "time", 1 << 30},
	} {
		got := stitchAdviceJSON(tc.gen, tc.sort, tc.count, rows)
		want := fmt.Sprintf(`{"generation":%d,"sort":%q,"count":%d,"rows":%s}`, tc.gen, tc.sort, tc.count, rows)
		if string(got) != want {
			t.Errorf("stitch(%d,%s,%d):\n got: %s\nwant: %s", tc.gen, tc.sort, tc.count, got, want)
		}
	}
}
