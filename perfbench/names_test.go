package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

type declared struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestPrintedMetricsMatchBenchmarkJSON runs every workload, shrunk to a
// small key range and a short window, untraced and traced, and checks that
// the metrics the last output line carries are exactly the ones
// BENCHMARK.json declares for that mode, with the declared units.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(strings.Split(workloadNames(), ", "), ","); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, benchmark runs %s", got, want)
	}
	for _, spec := range workloads {
		spec.keyRange = 1 << 12
		spec.setups = 1
		for _, traced := range []bool{false, true} {
			want := decl.EndToEnd
			if traced {
				want = decl.PerLayer
			}
			cfg := config{spec: spec, seed: 7, window: 200 * time.Millisecond, warmup: 50 * time.Millisecond, traced: traced, spans: t.TempDir() + "/spans.tsv"}
			var out bytes.Buffer
			ok, err := run(cfg, &out)
			if err != nil || !ok {
				t.Fatalf("%s traced=%t: ok=%t err=%v\n%s", spec.name, traced, ok, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", spec.name, err)
			}
			if res.Attempted < 1 || res.Failed != 0 || !res.Correct {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", spec.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%t: declared metric %s not printed", spec.name, traced, d.Name)
				} else if m.Unit != d.Unit {
					t.Errorf("%s traced=%t: %s printed in %s, declared in %s", spec.name, traced, d.Name, m.Unit, d.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				for name := range res.Metrics {
					found := false
					for _, d := range want {
						found = found || d.Name == name
					}
					if !found {
						t.Errorf("%s traced=%t: printed metric %s is not declared", spec.name, traced, name)
					}
				}
			}
		}
	}
}
