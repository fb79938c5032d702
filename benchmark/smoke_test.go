package main

import "testing"

// TestSmoke runs every workload for one second, end to end and traced,
// against a freshly built blitzd: no request may fail or answer wrongly,
// and each workload's hit-share rule must hold.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs blitzd")
	}
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildBlitzd(root)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{bin: bin, seed: 5, seconds: 1, client: newClient()}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			rec, err := b.run(name, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d problems=%v",
					name, traced, rec.Correct, rec.Failed, rec.Attempted, rec.Problems)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				if _, ok := rec.Metrics[d.name]; !ok && d.name != "latency_p99_ms" && d.name != "server_rss_p90_mb" {
					t.Errorf("%s traced=%v: metric %s missing", name, traced, d.name)
				}
			}
		}
	}
}
