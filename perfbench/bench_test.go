package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pdcquery/internal/dtype"
	"pdcquery/internal/histogram"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// assertMetrics checks that got holds exactly the named metrics, each
// with its declared unit.
func assertMetrics(t *testing.T, what string, got map[string]metric, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", what, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", what, m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("%s: metric %s in %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		}
	}
}

// TestWorkloadsTiny runs every workload of BENCHMARK.json, traced, on a
// 2^14-particle dataset: both metric sets must be emitted with their
// units, every completed op must have been compared with the oracle, no
// timed op may fail, and the span file must be written.
func TestWorkloadsTiny(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			cfg := config{workload: w.Name, seed: 7, seconds: 0.5, trace: true,
				logN: 14, setups: 1, minOps: 100, spanFile: spans}
			rep, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			assertMetrics(t, "untraced pass", rep.e2e, spec.EndToEnd)
			assertMetrics(t, "traced pass", rep.layers, spec.PerLayer)
			if rep.completed == 0 || rep.checked < rep.completed {
				t.Errorf("%d oracle checks for %d completed ops", rep.checked, rep.completed)
			}
			res := rep.result(true)
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("result line: correct %v, %d attempted, %d failed; first errors %v",
					res.Correct, res.Attempted, res.Failed, rep.ph.errs)
			}
			if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// TestOracleRejects checks that the comparisons catch a wrong reply.
func TestOracleRejects(t *testing.T) {
	values := []float32{0.5, 1.5, 1.75, 3}
	h := histogram.Build([]float64{0.5, 1.5, 1.75, 3}, 4)
	if err := checkHist("hist", h, values); err != nil {
		t.Fatalf("true histogram rejected: %v", err)
	}
	bad := h.Clone()
	bad.Counts[0]++
	bad.Counts[len(bad.Counts)-1]--
	var wrong *wrongAnswer
	if err := checkHist("hist", bad, values); !errors.As(err, &wrong) {
		t.Errorf("moved bin count accepted: %v", err)
	}
	tr := &truth{values: values}
	good := dtype.Bytes(slices.Clone(values))
	if err := checkData("data", good, tr); err != nil {
		t.Errorf("true data rejected: %v", err)
	}
	bent := slices.Clone(good)
	bent[5] ^= 1
	if err := checkData("data", bent, tr); !errors.As(err, &wrong) {
		t.Errorf("flipped data bit accepted: %v", err)
	}
}
