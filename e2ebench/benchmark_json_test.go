package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// The last output line must carry exactly the metrics BENCHMARK.json
// at the repository root lists.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(b.EndToEnd); !slices.Equal(got, e2eMetrics) {
		t.Errorf("end_to_end %v\nwant %v", got, e2eMetrics)
	}
	if got := names(b.PerLayer); !slices.Equal(got, layerMetrics) {
		t.Errorf("per_layer %v\nwant %v", got, layerMetrics)
	}
	var wls []string
	for _, w := range workloads() {
		wls = append(wls, w.name)
	}
	if got := names(b.Workloads); !slices.Equal(got, wls) {
		t.Errorf("workloads %v, want %v", got, wls)
	}
}
