package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

func TestTailRule(t *testing.T) {
	cases := []struct {
		n     int
		wantP float64
		ok    bool
	}{
		{19, 50, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		samples := make([]float64, c.n)
		for i := range samples {
			samples[i] = float64(c.n - i) // unsorted on purpose
		}
		p, v, ok := tail(samples)
		if p != c.wantP || ok != c.ok {
			t.Errorf("n=%d: tail picked p%g ok=%v, want p%g ok=%v", c.n, p, ok, c.wantP, c.ok)
			continue
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, s := range samples {
			if s > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: p%g = %g has %d samples beyond it, want >= 10", c.n, p, v, beyond)
		}
	}
}

// inputs renders every generator's output for seed as bytes.
func inputs(t *testing.T, seed int64) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	pts, err := solvePoints(seed, solveCycle)
	if err != nil {
		t.Fatal(err)
	}
	if out["solve-fine"], err = json.Marshal(pts); err != nil {
		t.Fatal(err)
	}
	w, specs := sweepSpecs(seed, 1)
	if out["sweep-dse"], err = json.Marshal(struct {
		W     any
		Specs any
	}{w, specs}); err != nil {
		t.Fatal(err)
	}
	plan, err := newServePlan(seed)
	if err != nil {
		t.Fatal(err)
	}
	if out["serve-mixed"], err = json.Marshal(plan); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestGeneratorsSeeded(t *testing.T) {
	a, b, c := inputs(t, 7), inputs(t, 7), inputs(t, 8)
	for name := range a {
		if !bytes.Equal(a[name], b[name]) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if bytes.Equal(a[name], c[name]) {
			t.Errorf("%s: different seeds gave identical inputs", name)
		}
	}
}

func TestServePlanShape(t *testing.T) {
	plan, err := newServePlan(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Pool) != serveClients*serveDistinct || len(plan.Pool) > 128 {
		t.Fatalf("pool has %d requests, want %d within the 128-entry cache", len(plan.Pool), serveClients*serveDistinct)
	}
	owner := map[int]int{}
	for c, seq := range plan.Clients {
		if len(seq) != serveSeqLen {
			t.Errorf("client %d sends %d requests, want %d", c, len(seq), serveSeqLen)
		}
		for _, idx := range seq {
			if o, ok := owner[idx]; ok && o != c {
				t.Errorf("request %d is sent by clients %d and %d", idx, o, c)
			}
			owner[idx] = c
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the metric lists must match.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for i, m := range bf.PerLayer {
		layers = append(layers, m.Name)
		if i < len(perLayerNames) && m.Unit != perLayerNames[i].unit {
			t.Errorf("per_layer metric %q: BENCHMARK.json unit %q, the benchmark reports %q", m.Name, m.Unit, perLayerNames[i].unit)
		}
	}
	var want []string
	for _, l := range perLayerNames {
		want = append(want, l.name)
	}
	for _, c := range []struct {
		kind      string
		got, want []string
	}{{"end_to_end", e2e, endToEndNames}, {"per_layer", layers, want}} {
		seen := map[string]bool{}
		for _, n := range c.want {
			if !metricName.MatchString(n) || len(n) > 64 {
				t.Errorf("%s metric %q does not match %s", c.kind, n, metricName)
			}
			if seen[n] {
				t.Errorf("%s metric %q listed twice", c.kind, n)
			}
			seen[n] = true
		}
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the benchmark reports %d", len(c.got), c.kind, len(c.want))
			continue
		}
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %q, the benchmark reports %q", c.kind, i, c.got[i], c.want[i])
			}
		}
	}
}
