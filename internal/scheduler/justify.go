package scheduler

// Double justification is a classic RCPSP schedule-improvement technique:
// right-justify every task (push it as late as the current makespan allows),
// then left-justify (pull everything back as early as possible). Each pass
// preserves feasibility; the left pass often discovers a strictly shorter
// makespan because right-justification frees resources early in the
// schedule. HILP applies it after the annealing search.

// Justify returns an improved (never worse) feasible schedule derived from s
// by one right-left justification pass. Option choices are preserved; only
// start times move.
func Justify(p *Problem, s Schedule) Schedule {
	right := rightJustify(p, s)
	left := leftJustify(p, right)
	if left.Makespan <= s.Makespan {
		return left
	}
	return s.Clone()
}

// rightJustify pushes every task as late as possible without exceeding the
// schedule's makespan, processing tasks in decreasing finish-time order so
// successors move before their predecessors.
func rightJustify(p *Problem, s Schedule) Schedule {
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

	tl := newTimeline(p)
	// Place all tasks at their current positions, then move one at a time.
	for i := 0; i < n; i++ {
		tl.place(i, out.Option[i], out.Start[i])
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
		tl.remove(i, out.Option[i], out.Start[i])
		best := out.Start[i]
		// Scan from the deadline downward for the latest feasible start. A
		// conflict at step c rules out every start in (c-duration, c], so
		// the scan jumps below that range.
		for cand := deadline; cand > out.Start[i]; {
			ok, c := tl.fits(i, out.Option[i], cand)
			if ok {
				best = cand
				break
			}
			cand = min(cand-1, c-o.Duration)
		}
		tl.place(i, out.Option[i], best)
		out.Start[i] = best
	}
	out.ComputeMakespan(p)
	return out
}

// leftJustify rebuilds the schedule with serial SGS using the right-justified
// start order as the activity list, which is the second half of double
// justification.
func leftJustify(p *Problem, s Schedule) Schedule {
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
	g := newSGS(p)
	out, ok := g.decode(order, s.Option)
	if !ok {
		return s.Clone()
	}
	return out
}
