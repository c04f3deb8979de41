package main

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names, got []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for n := range workloads {
		got = append(got, n)
	}
	sort.Strings(names)
	sort.Strings(got)
	if !reflect.DeepEqual(got, names) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", got, names)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestWorkloadsShort runs every workload at a small size, untraced and
// traced: each must pass its checks with no failed operation and print
// exactly the metrics BENCHMARK.json declares.
func TestWorkloadsShort(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			name, trace := name, trace
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				var out strings.Builder
				res, err := run(&runConfig{
					workload: name, seed: 7, seconds: 0.5, trace: trace,
					lanes: runtime.NumCPU(), setups: 1, small: true,
					workdir: t.TempDir(), out: &out,
				})
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%t attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				got := make(map[string]string, len(res.Metrics))
				for k, m := range res.Metrics {
					got[k] = m.Unit
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("metrics %v, BENCHMARK.json declares %v", got, want)
				}
				if !trace {
					for k, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", k, m.Value)
						}
					}
				}
			})
		}
	}
}
