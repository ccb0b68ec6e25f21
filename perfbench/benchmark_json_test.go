package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestBenchmarkJSON keeps ../BENCHMARK.json in step with the metrics
// this program prints and within the file's own limits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	check := func(n, u, better string) {
		checkName(n)
		if !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
		if better != "higher" && better != "lower" {
			t.Errorf("%s: better = %q", n, better)
		}
	}

	for _, w := range b.Workloads {
		checkName(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
		if _, err := run(smallShape, w.Name, 1, 0, false, ""); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d printed", len(b.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range b.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: %s [%s] in BENCHMARK.json, %s [%s] printed", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d printed", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		check(m.Name, m.Unit, m.Better)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: %s [%s] in BENCHMARK.json, %s [%s] printed", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
}
