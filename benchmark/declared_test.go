package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps the repository's BENCHMARK.json, which
// declares the benchmark, in step with what the code measures and reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %g, code default %d", decl.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, code %v", names, workloadNames)
	}
	for _, list := range []struct {
		decl []metric
		code []metricDef
	}{{decl.EndToEnd, endToEnd}, {decl.PerLayer, perLayer}} {
		var code []metric
		for _, d := range list.code {
			code = append(code, metric{d.name, d.unit, d.better, d.bound})
		}
		if !reflect.DeepEqual(list.decl, code) {
			t.Errorf("declared metrics\n%v\ndiffer from the code's\n%v", list.decl, code)
		}
	}
}
