package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestCatalogMatchesBenchmarkJSON keeps the metric catalog the harness
// prints and the repository's BENCHMARK.json in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n go   %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n go   %v", spec.PerLayer, perLayer)
	}
	// svc-open runs by hand only; see README.md.
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the harness does not run", w.Name)
		}
	}
	if len(names) != len(workloads)-1 || workloads["svc-open"] == nil {
		t.Errorf("BENCHMARK.json workloads %v: want every harness workload but svc-open", names)
	}
}
