package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/plot"
	"hpcadvisor/internal/queryengine"
)

// TestWritePlotsPinOneSnapshot appends to the store between the first and
// second render of one WritePlotsSVG / WritePredictedPlotsSVG call: all
// five files must still be the renders at the snapshot the call began at,
// never a set that mixes generations.
func TestWritePlotsPinOneSnapshot(t *testing.T) {
	adv := collectSweep(t, "lammps", []string{"Standard_HB120rs_v3", "Standard_HC44rs"},
		"[1, 2, 4, 8]", "  BOXFACTOR: \"12\"\n")
	f := dataset.Filter{AppName: "lammps"}
	cfg := adv.PredictorConfig("southcentralus", []int{1, 2, 4, 8, 16, 32})

	cases := []struct {
		name   string
		write  func(dir string) ([]string, error)
		render func(eng *queryengine.Engine, sn *dataset.Snapshot, name string) ([]byte, error)
	}{
		{
			name:  "measured",
			write: func(dir string) ([]string, error) { return adv.WritePlotsSVG(dir, f) },
			render: func(eng *queryengine.Engine, sn *dataset.Snapshot, name string) ([]byte, error) {
				return eng.SVG(sn, name, f)
			},
		},
		{
			name:  "predicted",
			write: func(dir string) ([]string, error) { return adv.WritePredictedPlotsSVG(dir, f, cfg) },
			render: func(eng *queryengine.Engine, sn *dataset.Snapshot, name string) ([]byte, error) {
				return eng.PredictedSVG(sn, name, f, cfg)
			},
		},
	}
	defer func() { testHookRendered = nil }()
	for i, tc := range cases {
		eng := adv.Engine()
		before := eng.Snapshot()
		// A faster run at a node count the sweep never reached changes
		// every plot of the set.
		extra := before.Select(f)[0]
		extra.ScenarioID = "late-append-" + tc.name
		extra.NNodes = 16 + i
		extra.ExecTimeSec /= 20
		appended := false
		testHookRendered = func() {
			if !appended {
				appended = true
				adv.Store.Add(extra)
			}
		}
		paths, err := tc.write(filepath.Join(t.TempDir(), tc.name))
		testHookRendered = nil
		if err != nil {
			t.Fatal(err)
		}
		if !appended || adv.Store.Generation() == before.Generation() {
			t.Fatalf("%s: the hook did not append mid-call", tc.name)
		}
		if len(paths) != len(plot.SetNames) {
			t.Fatalf("%s: wrote %d files, want %d", tc.name, len(paths), len(plot.SetNames))
		}
		after := eng.Snapshot()
		for k, name := range plot.SetNames {
			got, err := os.ReadFile(paths[k])
			if err != nil {
				t.Fatal(err)
			}
			want, err := tc.render(eng, before, name)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: %s is not the render at the generation the call began at", tc.name, name)
			}
			if k > 0 {
				// The append must have been visible to a fresh render, or
				// this test could not tell a pinned set from a mixed one.
				if newer, _ := tc.render(eng, after, name); bytes.Equal(newer, want) {
					t.Errorf("%s: %s does not change with the appended point", tc.name, name)
				}
			}
		}
	}
}
