package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// endToEndNames lists every end-to-end metric; an untraced run of any
// workload reports each of them.
var endToEndNames = []string{
	"setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms",
	"gap_mean", "speedup_geomean", "hypervolume", "rss_peak_mb", "alloc_mb_per_op",
}

// perLayerNames lists every per-layer metric; a traced run reports each,
// with 0 for layers its workload does not exercise.
var perLayerNames = []struct{ name, unit string }{
	{"core.validate_ms", "ms"}, {"core.build_ms", "ms"}, {"core.refinements", "count"},
	{"core.solve_problem_ms", "ms"},
	{"scheduler.bounds_ms", "ms"}, {"scheduler.anneal_ms", "ms"}, {"scheduler.justify_ms", "ms"},
	{"scheduler.destructive_lb_ms", "ms"}, {"scheduler.exact_ms", "ms"}, {"scheduler.exact_nodes", "count"},
	{"scheduler.exact_nodes_per_s", "1/s"}, {"scheduler.exact_exhausted_frac", "ratio"},
	{"scheduler.gap_met_frac", "ratio"}, {"scheduler.replay_coverage", "ratio"},
	{"dse.solved", "count"}, {"dse.cache_hits", "count"}, {"dse.warm_started", "count"},
	{"dse.pruned", "count"}, {"dse.reuse_frac", "ratio"}, {"dse.point_interval_ms", "ms"},
	{"journal.append_ms", "ms"}, {"journal.sync_ms", "ms"}, {"journal.appends", "count"},
	{"journal.bytes_per_point", "bytes"}, {"journal.replay_ms", "ms"},
	{"server.hit_p50_ms", "ms"}, {"server.miss_p50_ms", "ms"}, {"server.hit_frac", "ratio"},
	{"server.rejected", "count"},
	{"wire.request_bytes", "bytes"}, {"wire.response_bytes", "bytes"}, {"wire.encode_ms", "ms"},
	{"obs.metrics_scrape_ms", "ms"},
	{"trace_overhead_frac", "ratio"},
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricName is the shape every metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// metrics collects named values in insertion order for the text summary;
// the JSON result carries them as an object.
type metrics struct {
	names  []string
	values map[string]metric
	notes  map[string]string
}

func newMetrics() *metrics {
	return &metrics{values: map[string]metric{}, notes: map[string]string{}}
}

// set records a metric; a name used twice or outside metricName is a bug in
// the benchmark itself.
func (m *metrics) set(name, unit string, v float64) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("benchmark: bad metric name %q", name))
	}
	if _, dup := m.values[name]; dup {
		panic(fmt.Sprintf("benchmark: metric %q set twice", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.names = append(m.names, name)
	m.values[name] = metric{Value: v, Unit: unit}
}

// check reports whether exactly the names in want were set.
func (m *metrics) check(want []string) error {
	if len(m.names) != len(want) {
		return fmt.Errorf("benchmark: reported %d metrics, want %d", len(m.names), len(want))
	}
	for _, name := range want {
		if _, ok := m.values[name]; !ok {
			return fmt.Errorf("benchmark: metric %q not reported", name)
		}
	}
	return nil
}

// note attaches a human-readable remark printed beside the metric.
func (m *metrics) note(name, text string) { m.notes[name] = text }

// tailLadder lists the percentiles the tail rule chooses from, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := rank(p, len(sorted))
	if k < 1 {
		k = 1
	}
	return sorted[k-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples; the
// small slack keeps float rounding (99.9/100*10000 = 9990.000000000002) from
// pushing it one rank up.
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tail applies the reporting rule for tail latency: the highest percentile of
// tailLadder with at least 10 samples beyond it. With fewer than 20 samples
// no percentile qualifies and the median is returned with ok false.
func tail(samples []float64) (p, v float64, ok bool) {
	s := sortedCopy(samples)
	n := len(s)
	for _, p := range tailLadder {
		k := rank(p, n)
		if k >= 1 && n-k >= 10 {
			return p, s[k-1], true
		}
	}
	return 50, percentile(s, 50), false
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomean is the geometric mean of positive values; others are skipped.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// latency records the two latency metrics of the tail rule and notes which
// percentile the tail is and how many samples it rests on.
func (m *metrics) latency(samplesMS []float64) {
	p, v, ok := tail(samplesMS)
	m.set("latency_p50_ms", "ms", median(samplesMS))
	m.set("latency_tail_ms", "ms", v)
	txt := fmt.Sprintf("p%g, n=%d", p, len(samplesMS))
	if !ok {
		txt += ", fewer than 10 samples beyond any percentile"
	}
	m.note("latency_tail_ms", txt)
}
