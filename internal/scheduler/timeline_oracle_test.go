package scheduler

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// byteSource turns a byte string into a stream of bounded choices; an
// exhausted stream yields zeros, so every input is a valid op sequence.
type byteSource struct {
	b []byte
	i int
}

func (s *byteSource) next() int {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return int(s.b[s.i-1])
}

func (s *byteSource) intn(n int) int { return s.next() % n }

// oracleProblem draws a timeline test instance from src: four clusters over
// two or three device groups (so some clusters alias one device), up to three
// resources with fractional capacities, and options with zero durations,
// zero demands, non-representable fractions, demands above capacity and
// demands within a hair of it.
func oracleProblem(src *byteSource) *Problem {
	p := &Problem{NumClusters: 4, ClusterGroup: []int{0, 1, 1, 2 * src.intn(2)}, Horizon: src.intn(16)}
	for r := src.intn(4); r > 0; r-- {
		p.Resources = append(p.Resources, Resource{Capacity: float64(1+src.intn(5)) * 0.7})
	}
	demands := []float64{0, 0.1, 0.2, 0.3, 0.7, 1.4, 2.1, 9}
	var opts []Option
	for k := 3 + src.intn(6); k > 0; k-- {
		o := Option{Cluster: src.intn(4), Duration: src.intn(9)}
		for _, res := range p.Resources {
			// The last two choices straddle the capacity tolerance: alone, or
			// in pairs, they exceed the capacity by less than 1e-8.
			choices := append(demands, res.Capacity+5e-9, res.Capacity/2+3e-9)
			o.Demand = append(o.Demand, choices[src.intn(len(choices))])
		}
		opts = append(opts, o)
	}
	p.Tasks = []Task{{Name: "t", Options: opts}}
	return p
}

// checkTimelineOracle replays one op sequence on the skyline timeline and the
// dense oracle. fits (ok and conflict step) and earliestStart must agree on
// every probe, and after every mutation each step's busy flag and usage value
// must be identical, usage bit for bit.
func checkTimelineOracle(t testing.TB, data []byte) {
	src := &byteSource{b: data}
	p := oracleProblem(src)
	opts := p.Tasks[0].Options
	tl, dense := newTimeline(p), newDenseTimeline(p)
	type placement struct{ o, start int }
	var stack []placement
	horizon := 0 // every step past it is free in both
	for op := 0; src.i < len(src.b) && op < 200; op++ {
		oi := src.intn(len(opts))
		o := &opts[oi]
		start := src.intn(48)
		switch src.intn(8) {
		case 0, 1: // place anywhere, even over a conflict
			tl.place(0, oi, start)
			dense.place(o, start)
			stack = append(stack, placement{oi, start})
			horizon = max(horizon, start+o.Duration)
		case 2: // place where it fits
			s := dense.earliestStart(o, start, 1000)
			if s < 0 {
				continue
			}
			tl.place(0, oi, s)
			dense.place(o, s)
			stack = append(stack, placement{oi, s})
			horizon = max(horizon, s+o.Duration)
		case 3: // LIFO remove
			if len(stack) == 0 {
				continue
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			tl.remove(0, top.o, top.start)
			dense.remove(&opts[top.o], top.start)
		case 4:
			if src.intn(4) == 0 {
				tl.reset()
				dense.reset()
				stack = stack[:0]
			}
		case 5, 6:
			okT, cT := tl.fits(0, oi, start)
			okD, cD := dense.fits(o, start)
			if okT != okD || cT != cD {
				t.Fatalf("op %d: fits(%+v, %d) = (%v, %d), oracle (%v, %d)", op, *o, start, okT, cT, okD, cD)
			}
			continue
		default:
			maxStart := start + src.intn(64)
			if src.intn(4) == 0 {
				maxStart = newDenseSGS(p).maxStartBound()
			}
			if got, want := tl.earliestStart(0, oi, start, maxStart), dense.earliestStart(o, start, maxStart); got != want {
				t.Fatalf("op %d: earliestStart(%+v, %d, %d) = %d, oracle %d", op, *o, start, maxStart, got, want)
			}
			continue
		}
		compareProfiles(t, op, tl, dense, horizon)
	}
}

// compareProfiles checks steps [0, horizon] of the skyline against the dense
// oracle, then the skyline's own invariants: sorted, disjoint busy intervals
// and strictly increasing breakpoints.
func compareProfiles(t testing.TB, op int, tl *timeline, dense *denseTimeline, horizon int) {
	t.Helper()
	for s := 0; s <= horizon; s++ {
		for g, busy := range dense.groupBusy {
			want := s < len(busy) && busy[s]
			iv := tl.busy[g]
			i := firstEndAfter(iv, s)
			if got := i < len(iv) && iv[i].lo <= s; got != want {
				t.Fatalf("op %d: group %d step %d busy = %v, oracle %v", op, g, s, got, want)
			}
		}
		for r, u := range dense.usage {
			want := 0.0
			if s < len(u) {
				want = u[s]
			}
			got := tl.use[tl.seg(s)*tl.nres+r]
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("op %d: resource %d step %d usage = %v, oracle %v", op, r, s, got, want)
			}
		}
	}
	for g, iv := range tl.busy {
		for i := range iv {
			if iv[i].lo >= iv[i].hi || i > 0 && iv[i-1].hi > iv[i].lo {
				t.Fatalf("op %d: group %d intervals not sorted and disjoint: %v", op, g, iv)
			}
		}
	}
	for k := 1; k < len(tl.pos); k++ {
		if tl.pos[k] <= tl.pos[k-1] {
			t.Fatalf("op %d: breakpoints out of order: %v", op, tl.pos)
		}
	}
}

// timelineOracleCases are the seeded op streams of the property test; they
// also seed FuzzTimelineOracle.
func timelineOracleCases() [][]byte {
	var cases [][]byte
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, 40+rng.Intn(600))
		rng.Read(b)
		cases = append(cases, b)
	}
	return cases
}

// TestTimelineMatchesDenseOracle: random place / LIFO remove / reset / fits /
// earliestStart sequences give identical answers and identical per-step
// occupancy on the skyline and on the per-step array timeline it replaced.
func TestTimelineMatchesDenseOracle(t *testing.T) {
	for _, c := range timelineOracleCases() {
		checkTimelineOracle(t, c)
	}
}

func FuzzTimelineOracle(f *testing.F) {
	for _, c := range timelineOracleCases()[:8] {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkTimelineOracle(t, data)
	})
}

// randomDAGProblem builds a small multi-app instance with chains, cross-app
// edges of both kinds with lags, aliased device groups and fractional
// power/bandwidth demands, some above capacity on one option.
func randomDAGProblem(rng *rand.Rand) *Problem {
	p := &Problem{
		NumClusters:  5,
		ClusterGroup: []int{0, 1, 2, 2, 3},
		Resources:    []Resource{{Name: "power", Capacity: 2.1}, {Name: "bw", Capacity: 0.9}},
		Horizon:      10 + rng.Intn(40),
	}
	n := 4 + rng.Intn(9)
	for i := 0; i < n; i++ {
		t := Task{Name: "t", App: i % 3}
		if i >= 3 {
			t.Deps = append(t.Deps, Dep{Task: i - 3, Kind: DepKind(rng.Intn(2)), Lag: rng.Intn(3)})
			if rng.Intn(3) == 0 {
				t.Deps = append(t.Deps, Dep{Task: rng.Intn(i), Kind: FinishStart})
			}
		}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			t.Options = append(t.Options, Option{
				Cluster:  rng.Intn(5),
				Duration: rng.Intn(12),
				Demand:   []float64{0.1 * float64(rng.Intn(25)), 0.3 * float64(rng.Intn(4))},
			})
		}
		p.Tasks = append(p.Tasks, t)
	}
	return p
}

// TestDecodeAndJustifyMatchDenseOracle: the heap-driven SGS decode and the
// jumping right justification produce exactly the schedules of the
// list-rescanning decode and the unit-step scan over the dense timeline,
// including on lists with duplicates and missing tasks.
func TestDecodeAndJustifyMatchDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for inst := 0; inst < 150; inst++ {
		p := randomDAGProblem(rng)
		n := len(p.Tasks)
		g, dense := newSGS(p), newDenseSGS(p)
		for k := 0; k < 20; k++ {
			list := rng.Perm(n)
			switch rng.Intn(6) {
			case 0:
				list = append(list, list[rng.Intn(n)])
				list[rng.Intn(len(list))] = list[rng.Intn(len(list))]
			case 1:
				list[rng.Intn(n)] = -1
			}
			opts := make([]int, n)
			for i := range opts {
				opts[i] = rng.Intn(len(p.Tasks[i].Options))
			}
			got, okG := g.decode(list, opts)
			want, okD := dense.decode(list, opts)
			if okG != okD || !reflect.DeepEqual(got, want) {
				t.Fatalf("instance %d list %v opts %v: decode = (%v, %+v), oracle (%v, %+v)", inst, list, opts, okG, got, okD, want)
			}
			if !okG {
				continue
			}
			if r, rd := rightJustify(p, got), denseRightJustify(p, want); !reflect.DeepEqual(r, rd) {
				t.Fatalf("instance %d: rightJustify = %+v, oracle %+v", inst, r, rd)
			}
			if j, jd := Justify(p, got), denseJustify(p, want); !reflect.DeepEqual(j, jd) {
				t.Fatalf("instance %d: Justify = %+v, oracle %+v", inst, j, jd)
			}
		}
	}
}
