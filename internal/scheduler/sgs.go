package scheduler

// sgs is a reusable serial schedule-generation scheme. Given an activity
// list (a task permutation) and per-task option choices, it builds the
// semi-active schedule that places each task, in list order (repaired to be
// precedence-feasible), at its earliest feasible start. Serial SGS over all
// activity lists and option assignments is known to reach an optimal schedule
// for regular objectives such as makespan, which makes it a sound decoding
// for both heuristics and the exact search.
type sgs struct {
	p      *Problem
	tl     *timeline
	start  []int
	finish []int
	// maxStart is the hard cap on placement searches; hitting it means the
	// instance is so over-constrained that no placement exists even far past
	// the horizon (e.g. a demand exceeding a resource capacity outright).
	maxStart int

	// Activity-list repair state, reused across decodes.
	succ    [][]int // successors, once per dependency edge
	waiting []int   // unscheduled dependency edges per task
	first   []int   // first list position per task, -1 if absent
	heap    []int   // min-heap of first positions of eligible tasks
}

func newSGS(p *Problem) *sgs {
	n := len(p.Tasks)
	g := &sgs{
		p:        p,
		tl:       newTimeline(p),
		start:    make([]int, n),
		finish:   make([]int, n),
		maxStart: maxStartBound(p),
		succ:     make([][]int, n),
		waiting:  make([]int, n),
		first:    make([]int, n),
		heap:     make([]int, 0, n),
	}
	for i, t := range p.Tasks {
		for _, d := range t.Deps {
			g.succ[d.Task] = append(g.succ[d.Task], i)
		}
	}
	return g
}

func maxStartBound(p *Problem) int {
	total := p.Horizon
	for _, t := range p.Tasks {
		total += t.MinDuration() + 1
	}
	return 4*total + 64
}

// ready returns the earliest start permitted by task i's dependencies given
// the currently scheduled predecessors. All predecessors must be scheduled.
func (g *sgs) ready(i int) int {
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
//
// Canonical activity-list decoding places the first eligible task in list
// order, then looks again, so earlier list positions keep priority. Rather
// than rescanning the list, decode counts each task's unscheduled
// dependencies and keeps the list positions of eligible tasks in a min-heap:
// the heap's minimum is exactly the task a rescan would pick.
func (g *sgs) decode(list []int, opts []int) (Schedule, bool) {
	return g.decodeInto(Schedule{}, list, opts)
}

// decodeInto is decode returning its schedule in dst's slices when they are
// large enough, so a search loop that discards most candidates can recycle
// them instead of allocating per decode.
func (g *sgs) decodeInto(dst Schedule, list []int, opts []int) (Schedule, bool) {
	g.tl.reset()
	n := len(g.p.Tasks)
	for i := range g.p.Tasks {
		g.waiting[i] = len(g.p.Tasks[i].Deps)
		g.first[i] = -1
	}
	for idx, i := range list {
		if i >= 0 && g.first[i] < 0 {
			g.first[i] = idx
		}
	}
	g.heap = g.heap[:0]
	for i := range g.p.Tasks {
		if g.waiting[i] == 0 && g.first[i] >= 0 {
			g.push(g.first[i])
		}
	}

	makespan := 0
	for placed := 0; placed < n; placed++ {
		if len(g.heap) == 0 {
			// Should be impossible on a validated (acyclic) problem whose
			// list names every task.
			return dst, false
		}
		i := list[g.pop()]
		s := g.tl.earliestStart(i, opts[i], g.ready(i), g.maxStart)
		if s < 0 {
			return dst, false
		}
		g.tl.place(i, opts[i], s)
		g.start[i] = s
		g.finish[i] = s + g.p.Tasks[i].Options[opts[i]].Duration
		makespan = max(makespan, g.finish[i])
		for _, j := range g.succ[i] {
			g.waiting[j]--
			if g.waiting[j] == 0 && g.first[j] >= 0 {
				g.push(g.first[j])
			}
		}
	}

	if cap(dst.Start) < n || cap(dst.Option) < n {
		// One allocation backs both slices of a new schedule.
		buf := make([]int, 2*n)
		dst.Start, dst.Option = buf[:n:n], buf[n:]
	}
	dst.Start, dst.Option = dst.Start[:n], dst.Option[:n]
	copy(dst.Start, g.start)
	copy(dst.Option, opts)
	dst.Makespan = makespan
	return dst, true
}

// push adds a list position to the eligibility heap.
func (g *sgs) push(x int) {
	h := append(g.heap, x)
	for c := len(h) - 1; c > 0; {
		p := (c - 1) / 2
		if h[p] <= x {
			break
		}
		h[c], h[p] = h[p], x
		c = p
	}
	g.heap = h
}

// pop removes and returns the smallest list position in the heap.
func (g *sgs) pop() int {
	h := g.heap
	top := h[0]
	last := len(h) - 1
	x := h[last]
	h = h[:last]
	for c := 0; ; {
		l := 2*c + 1
		if l >= last {
			if last > 0 {
				h[c] = x
			}
			break
		}
		if r := l + 1; r < last && h[r] < h[l] {
			l = r
		}
		if x <= h[l] {
			h[c] = x
			break
		}
		h[c] = h[l]
		c = l
	}
	g.heap = h
	return top
}
