package scheduler

// Differential oracle for the skyline timeline: the dense per-step timeline,
// the list-rescanning SGS decode and the unit-step right justification exactly
// as they were before the skyline replaced them. The tests in
// timeline_oracle_test.go require the production code to agree with these
// bit for bit.

// denseTimeline is the per-step array timeline the skyline profile
// replaced, kept verbatim as a differential oracle: groupBusy and usage hold
// one entry per time step and grow on demand.
type denseTimeline struct {
	p         *Problem
	groupBusy [][]bool    // [group][step]
	usage     [][]float64 // [resource][step]
	length    int
}

func newDenseTimeline(p *Problem) *denseTimeline {
	t := &denseTimeline{p: p}
	t.groupBusy = make([][]bool, p.NumGroups())
	t.usage = make([][]float64, len(p.Resources))
	t.grow(p.Horizon + 1)
	return t
}

// grow extends all step arrays to at least n steps.
func (t *denseTimeline) grow(n int) {
	if n <= t.length {
		return
	}
	for g := range t.groupBusy {
		t.groupBusy[g] = append(t.groupBusy[g], make([]bool, n-len(t.groupBusy[g]))...)
	}
	for r := range t.usage {
		t.usage[r] = append(t.usage[r], make([]float64, n-len(t.usage[r]))...)
	}
	t.length = n
}

// reset clears all occupancy without shrinking the arrays.
func (t *denseTimeline) reset() {
	for g := range t.groupBusy {
		b := t.groupBusy[g]
		for i := range b {
			b[i] = false
		}
	}
	for r := range t.usage {
		u := t.usage[r]
		for i := range u {
			u[i] = 0
		}
	}
}

// fits reports whether placing an option at start would violate the group
// unary constraint or any resource capacity. On failure it returns the first
// conflicting step so the caller can jump past it.
func (t *denseTimeline) fits(o *Option, start int) (bool, int) {
	end := start + o.Duration
	t.grow(end)
	g := t.p.ClusterGroup[o.Cluster]
	busy := t.groupBusy[g]
	for s := start; s < end; s++ {
		if busy[s] {
			return false, s
		}
	}
	for r := range t.p.Resources {
		d := o.Demand[r]
		if d == 0 {
			continue
		}
		cap := t.p.Resources[r].Capacity
		u := t.usage[r]
		for s := start; s < end; s++ {
			if u[s]+d > cap+1e-9 {
				return false, s
			}
		}
	}
	return true, 0
}

// place commits an option at start.
func (t *denseTimeline) place(o *Option, start int) {
	end := start + o.Duration
	t.grow(end)
	busy := t.groupBusy[t.p.ClusterGroup[o.Cluster]]
	for s := start; s < end; s++ {
		busy[s] = true
	}
	for r := range t.p.Resources {
		d := o.Demand[r]
		if d == 0 {
			continue
		}
		u := t.usage[r]
		for s := start; s < end; s++ {
			u[s] += d
		}
	}
}

// remove undoes a placement.
func (t *denseTimeline) remove(o *Option, start int) {
	end := start + o.Duration
	busy := t.groupBusy[t.p.ClusterGroup[o.Cluster]]
	for s := start; s < end; s++ {
		busy[s] = false
	}
	for r := range t.p.Resources {
		d := o.Demand[r]
		if d == 0 {
			continue
		}
		u := t.usage[r]
		for s := start; s < end; s++ {
			u[s] -= d
		}
	}
}

// earliestStart finds the earliest start >= ready where the option fits.
// maxStart bounds the search; -1 is returned if nothing fits by then.
func (t *denseTimeline) earliestStart(o *Option, ready, maxStart int) int {
	s := ready
	for s <= maxStart {
		ok, conflict := t.fits(o, s)
		if ok {
			return s
		}
		s = conflict + 1
	}
	return -1
}

// denseSGS is the serial SGS as it was built on denseTimeline, including
// the rescan-the-pending-list decode loop.
type denseSGS struct {
	p         *Problem
	tl        *denseTimeline
	scheduled []bool
	start     []int
	finish    []int
}

func newDenseSGS(p *Problem) *denseSGS {
	return &denseSGS{
		p:         p,
		tl:        newDenseTimeline(p),
		scheduled: make([]bool, len(p.Tasks)),
		start:     make([]int, len(p.Tasks)),
		finish:    make([]int, len(p.Tasks)),
	}
}

// maxStartBound is the hard cap on placement searches; hitting it means the
// instance is so over-constrained that no placement exists even far past the
// horizon (e.g. a demand exceeding a resource capacity outright).
func (g *denseSGS) maxStartBound() int {
	total := g.p.Horizon
	for _, t := range g.p.Tasks {
		total += t.MinDuration() + 1
	}
	return 4*total + 64
}

// ready returns the earliest start permitted by task i's dependencies given
// the currently scheduled predecessors. All predecessors must be scheduled.
func (g *denseSGS) ready(i int) int {
	ready := 0
	for _, d := range g.p.Tasks[i].Deps {
		var e int
		switch d.Kind {
		case FinishStart:
			e = g.finish[d.Task] + d.Lag
		case StartStart:
			e = g.start[d.Task] + d.Lag
		}
		if e > ready {
			ready = e
		}
	}
	return ready
}

// decode builds a schedule from an activity list and option choices. The
// list need not be precedence-feasible: tasks whose predecessors are not yet
// scheduled are deferred, preserving relative order otherwise (standard
// activity-list repair). It returns false only if some task cannot be placed
// within the hard bound, which indicates an infeasible option (demand above
// capacity).
func (g *denseSGS) decode(list []int, opts []int) (Schedule, bool) {
	g.tl.reset()
	for i := range g.scheduled {
		g.scheduled[i] = false
	}
	maxStart := g.maxStartBound()

	n := len(g.p.Tasks)
	placed := 0
	pending := make([]int, len(list))
	copy(pending, list)

	for placed < n {
		advanced := false
		// Canonical activity-list decoding: place the first eligible task in
		// list order, then rescan, so earlier list positions keep priority.
		for idx := 0; idx < len(pending); idx++ {
			i := pending[idx]
			if i < 0 || g.scheduled[i] {
				continue
			}
			allPreds := true
			for _, d := range g.p.Tasks[i].Deps {
				if !g.scheduled[d.Task] {
					allPreds = false
					break
				}
			}
			if !allPreds {
				continue
			}
			o := &g.p.Tasks[i].Options[opts[i]]
			s := g.tl.earliestStart(o, g.ready(i), maxStart)
			if s < 0 {
				return Schedule{}, false
			}
			g.tl.place(o, s)
			g.start[i] = s
			g.finish[i] = s + o.Duration
			g.scheduled[i] = true
			pending[idx] = -1
			placed++
			advanced = true
			break
		}
		if !advanced {
			// Should be impossible on a validated (acyclic) problem.
			return Schedule{}, false
		}
	}

	sched := Schedule{Start: make([]int, n), Option: make([]int, n)}
	copy(sched.Start, g.start)
	copy(sched.Option, opts)
	sched.ComputeMakespan(g.p)
	return sched, true
}

// denseRightJustify is rightJustify with the unit-step downward scan. It
// pushes every task as late as possible without exceeding the
// schedule's makespan, processing tasks in decreasing finish-time order so
// successors move before their predecessors.
func denseRightJustify(p *Problem, s Schedule) Schedule {
	n := len(p.Tasks)
	out := s.Clone()
	makespan := s.Makespan

	succ := p.Successors()
	// Order: decreasing finish time, ties by decreasing start.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0; j-- {
			a, b := order[j], order[j-1]
			fa, fb := s.Finish(p, a), s.Finish(p, b)
			if fa > fb || (fa == fb && s.Start[a] > s.Start[b]) {
				order[j], order[j-1] = order[j-1], order[j]
			} else {
				break
			}
		}
	}

	tl := newDenseTimeline(p)
	tl.grow(makespan + 1)
	// Place all tasks at their current positions, then move one at a time.
	for i := 0; i < n; i++ {
		tl.place(&p.Tasks[i].Options[out.Option[i]], out.Start[i])
	}

	for _, i := range order {
		o := &p.Tasks[i].Options[out.Option[i]]
		// Deadline from successors (they have already been right-shifted).
		deadline := makespan - o.Duration
		for _, si := range succ[i] {
			for _, d := range p.Tasks[si].Deps {
				if d.Task != i {
					continue
				}
				var latest int
				switch d.Kind {
				case FinishStart:
					latest = out.Start[si] - d.Lag - o.Duration
				case StartStart:
					latest = out.Start[si] - d.Lag
				}
				if latest < deadline {
					deadline = latest
				}
			}
		}
		if deadline <= out.Start[i] {
			continue
		}
		tl.remove(o, out.Start[i])
		best := out.Start[i]
		// Scan from the deadline downward for the latest feasible start.
		for cand := deadline; cand > out.Start[i]; cand-- {
			if ok, _ := tl.fits(o, cand); ok {
				best = cand
				break
			}
		}
		tl.place(o, best)
		out.Start[i] = best
	}
	out.ComputeMakespan(p)
	return out
}

// denseJustify is Justify over the oracles. It returns an improved (never worse) feasible schedule derived from s
// by one right-left justification pass. Option choices are preserved; only
// start times move.
func denseJustify(p *Problem, s Schedule) Schedule {
	right := denseRightJustify(p, s)
	left := denseLeftJustify(p, right)
	if left.Makespan <= s.Makespan {
		return left
	}
	return s.Clone()
}

// denseLeftJustify is leftJustify over the oracles. It rebuilds the schedule with serial SGS using the right-justified
// start order as the activity list, which is the second half of double
// justification.
func denseLeftJustify(p *Problem, s Schedule) Schedule {
	n := len(p.Tasks)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && s.Start[order[j]] < s.Start[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	g := newDenseSGS(p)
	out, ok := g.decode(order, s.Option)
	if !ok {
		return s.Clone()
	}
	return out
}
