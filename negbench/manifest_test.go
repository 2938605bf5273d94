package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// The result line must carry exactly the metrics BENCHMARK.json names.
func TestMetricListsMatchManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, x := range ms {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(m.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, negbench reports %v", got, endToEnd)
	}
	if got := names(m.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, negbench reports %v", got, perLayer)
	}
}
