package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/perfbench/internal/load"
	"repro/perfbench/internal/probe"
)

// benchmarkJSON is the part of ../BENCHMARK.json these tests read.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json lists the workloads in the order the code runs them,
// and each one's description states its offered rate.
func TestBenchmarkJSONWorkloads(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(load.Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(load.Workloads))
	}
	for i, w := range b.Workloads {
		spec := load.Workloads[i]
		if w.Name != spec.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, spec.Name)
		}
		if rate := fmt.Sprintf("%.0f op/s", spec.Rate); !strings.Contains(w.Why, rate) {
			t.Errorf("%s: description does not state the offered rate %q", spec.Name, rate)
		}
	}
}

// The traced run reports exactly the per-layer metrics BENCHMARK.json
// lists, with the same units.
func TestPerLayerMetricsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	p := &phase{stats0: obs.Snapshot{}, stats1: obs.Snapshot{}}
	got := perLayer(p, p, p, probe.Layers{}, maint{}, nil)
	for name, v := range wallMetrics(nil, 0, nil) {
		got[name] = v
	}
	var want []string
	for _, m := range b.PerLayer {
		want = append(want, m.Name)
		if g, ok := got[m.Name]; ok && g.Unit != m.Unit {
			t.Errorf("%s: unit %q in the code, %q in BENCHMARK.json", m.Name, g.Unit, m.Unit)
		}
	}
	var names []string
	for n := range got {
		names = append(names, n)
	}
	slices.Sort(names)
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Errorf("traced run reports %v\nBENCHMARK.json lists %v", names, want)
	}
}
