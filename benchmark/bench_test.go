package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestWorkloadsSmall runs every workload at small scale (a tiny camera
// and one situation), untraced and traced, and checks that the output
// checks pass and that every metric BENCHMARK.json names is reported
// with its unit.
func TestWorkloadsSmall(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var known []string
	for w := range workloads {
		known = append(known, w)
	}
	sort.Strings(names)
	sort.Strings(known)
	if len(names) != len(known) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, known)
	}
	for i := range names {
		if names[i] != known[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, known)
		}
	}

	for _, w := range names {
		for _, trace := range []bool{false, true} {
			rep, err := run(w, 3, 100*time.Millisecond, trace, t.TempDir(), tinySizes())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w, trace, m.Name, got, m.Unit)
				}
			}
			if !trace {
				for _, m := range want {
					if rep.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, rep.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}
