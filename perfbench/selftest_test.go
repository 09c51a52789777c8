package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"

	"gaussrange/internal/vecmat"
)

// manifest is the part of ../BENCHMARK.json the self-test checks against.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// tiny is a run small enough for a unit test: a thinned dataset and
// sub-second windows.
func tiny(t *testing.T, workload string, trace bool) config {
	return config{root: t.TempDir(), workload: workload, seed: 7, seconds: 0.4, trace: trace,
		points: 3000, setups: 2, clients: 2}
}

func TestEveryMetricEmitted(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloadNames) {
		t.Fatalf("manifest lists %d workloads, benchmark has %d", len(m.Workloads), len(workloadNames))
	}
	for i, w := range m.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: manifest %q, benchmark %q", i, w.Name, workloadNames[i])
		}
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			want := m.EndToEnd
			if trace {
				want = m.PerLayer
			}
			res, err := run(tiny(t, w, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			for _, mm := range want {
				got, ok := res.Metrics[mm.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not emitted", w, trace, mm.Name)
				} else if got.Unit != mm.Unit {
					t.Errorf("%s trace=%v: metric %s unit %q, manifest %q", w, trace, mm.Name, got.Unit, mm.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, manifest names %d", w, trace, len(res.Metrics), len(want))
			}
		}
	}
}

func TestPlantedWrongAnswerRaisesFailFrac(t *testing.T) {
	cfg := tiny(t, "paper-g10", false)
	cfg.plantWrongAnswer = true
	res, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed < 1 || res.Metrics["ok_frac"].Value >= 1 {
		t.Errorf("planted wrong answer not caught: correct=%v failed=%d ok_frac=%v",
			res.Correct, res.Failed, res.Metrics["ok_frac"].Value)
	}
}

func TestPlantedLostWriteRaisesFailFrac(t *testing.T) {
	cfg := tiny(t, "live-rw", false)
	cfg.plantLostWrite = true
	res, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed < 1 || res.Metrics["ok_frac"].Value >= 1 {
		t.Errorf("planted lost write not caught: correct=%v failed=%d ok_frac=%v",
			res.Correct, res.Failed, res.Metrics["ok_frac"].Value)
	}
}

func TestSequenceIsDeterministic(t *testing.T) {
	pts := basePoints(3000)
	for _, w := range workloadNames {
		a, err := generate(w, 5, pts, 500)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(w, 5, pts, 500)
		ja, _ := json.Marshal(opsWire(a))
		jb, _ := json.Marshal(opsWire(b))
		if string(ja) != string(jb) {
			t.Errorf("%s: same seed gave different sequences", w)
		}
	}
}

func TestTrackFreshMissesPlanCache(t *testing.T) {
	pts := basePoints(3000)
	ops, err := generate("track-fresh", 3, pts, 2000)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	lo, hi := gammaMax, gammaMin
	for _, o := range ops {
		key, _ := json.Marshal(o.query.Cov)
		if seen[string(key)] {
			t.Fatalf("repeated covariance %s", key)
		}
		seen[string(key)] = true
		g := detGamma(vecmat.MustFromRows(o.query.Cov))
		lo, hi = min(lo, g), max(hi, g)
	}
	if lo < gammaMin || hi > gammaMax || hi/lo < 10 {
		t.Errorf("posterior γ spans [%.2f, %.2f], want a wide spread inside [%g, %g]", lo, hi, gammaMin, gammaMax)
	}
}

// opsWire is a comparable projection of an op sequence.
func opsWire(ops []op) []any {
	out := make([]any, len(ops))
	for i, o := range ops {
		out[i] = []any{o.kind, o.query, o.pts, o.id}
	}
	return out
}
