package scheduler

import (
	"math"
	"slices"
)

// timeline tracks group occupancy and cumulative resource usage over time so
// the schedule-generation scheme can test placements incrementally. It is an
// event-list ("skyline") profile: occupancy is stored as intervals and
// breakpoints rather than per-step arrays, so every operation costs in the
// number of placed tasks, not in the number of time steps, and the memory it
// holds is O(tasks) at any resolution. The time axis is unbounded; the
// scheduling horizon is soft here.
//
// Each device group keeps a sorted list of disjoint busy intervals. All
// resources share one sorted breakpoint list: segment k covers
// [pos[k], pos[k+1]) (the last one runs to +inf) and owns the usage row
// use[k*nres : (k+1)*nres]. Usage is updated with the same per-step += d /
// -= d sequence a per-step array would see, and two neighbouring segments
// merge only when their rows are exactly equal, so every step's usage value
// is bit-identical to a per-step array's.
//
// Placements are addressed by (task, option) index; newTimeline compiles
// each option into a footprint once so probes skip zero demands.
type timeline struct {
	nres int
	fp   [][]footprint // [task][option]
	busy [][]span      // [group] sorted disjoint busy intervals
	pos  []int         // segment starts; pos[0] = math.MinInt
	use  []float64     // [segment*nres + resource]
	hint int           // last segment index seg returned
}

// span is a half-open busy interval [lo, hi) of time steps.
type span struct{ lo, hi int }

// footprint is one option as the timeline sees it: its device group, its
// duration and its nonzero demands in resource order.
type footprint struct {
	group, dur int
	need       []need
}

// need is one nonzero demand and its resource's capacity plus tolerance.
type need struct {
	r      int
	d, lim float64
}

func newTimeline(p *Problem) *timeline {
	n, r := len(p.Tasks), len(p.Resources)
	t := &timeline{
		nres: r,
		fp:   make([][]footprint, n),
		busy: make([][]span, p.NumGroups()),
		pos:  make([]int, 1, 2*n+1),
		use:  make([]float64, r, (2*n+1)*r),
	}
	t.pos[0] = math.MinInt
	var needs []need
	for i := range p.Tasks {
		for _, o := range p.Tasks[i].Options {
			for r, d := range o.Demand {
				if d != 0 {
					needs = append(needs, need{r, d, p.Resources[r].Capacity + 1e-9})
				}
			}
		}
	}
	for i := range p.Tasks {
		t.fp[i] = make([]footprint, len(p.Tasks[i].Options))
		for oi, o := range p.Tasks[i].Options {
			k := 0
			for _, d := range o.Demand {
				if d != 0 {
					k++
				}
			}
			t.fp[i][oi] = footprint{group: p.ClusterGroup[o.Cluster], dur: o.Duration, need: needs[:k:k]}
			needs = needs[k:]
		}
	}
	return t
}

// reset clears all occupancy without releasing capacity.
func (t *timeline) reset() {
	for g := range t.busy {
		t.busy[g] = t.busy[g][:0]
	}
	t.pos = t.pos[:1]
	t.use = t.use[:t.nres]
	clear(t.use)
}

// fits reports whether placing option oi of task i at start would violate
// the group unary constraint or any resource capacity. On failure it returns
// the first conflicting step: the group is checked first, then each resource
// in index order, so the step is the first conflict of the first violated
// constraint.
func (t *timeline) fits(i, oi, start int) (bool, int) {
	f := &t.fp[i][oi]
	end := start + f.dur
	if end <= start {
		return true, 0
	}
	iv := t.busy[f.group]
	if j := firstEndAfter(iv, start); j < len(iv) && iv[j].lo < end {
		return false, max(iv[j].lo, start)
	}
	a := t.seg(start)
	for _, q := range f.need {
		for k := a; k < len(t.pos) && t.pos[k] < end; k++ {
			if t.use[k*t.nres+q.r]+q.d > q.lim {
				return false, max(t.pos[k], start)
			}
		}
	}
	return true, 0
}

// earliestStart finds the earliest start >= ready where option oi of task i
// fits. maxStart bounds the search; -1 is returned if nothing fits by then.
// A blocked probe jumps to the end of the last blocking busy interval or
// segment in its window, since every start before that end still overlaps
// it. Starts only move forward, so one cursor into the group's intervals and
// one into the segments carry over from probe to probe.
func (t *timeline) earliestStart(i, oi, ready, maxStart int) int {
	f := &t.fp[i][oi]
	s := ready
	if f.dur <= 0 {
		if s <= maxStart {
			return s
		}
		return -1
	}
	iv := t.busy[f.group]
	pos, use, n := t.pos, t.use, t.nres
	g := firstEndAfter(iv, s) // first busy interval ending after s
	a := t.seg(s)             // segment containing s
	for s <= maxStart {
		end := s + f.dur
		if g < len(iv) && iv[g].lo < end {
			for g+1 < len(iv) && iv[g+1].lo < end {
				g++
			}
			s = iv[g].hi
			g++
			for a+1 < len(pos) && pos[a+1] <= s {
				a++
			}
			continue
		}
		b := a
		for b+1 < len(pos) && pos[b+1] < end {
			b++
		}
		k := b
	scan:
		for ; k >= a; k-- {
			for _, q := range f.need {
				if use[k*n+q.r]+q.d > q.lim {
					break scan
				}
			}
		}
		if k < a {
			return s
		}
		if k+1 == len(pos) {
			return -1 // blocked on the unbounded last segment
		}
		s, a = pos[k+1], k+1
		for g < len(iv) && iv[g].hi <= s {
			g++
		}
	}
	return -1
}

// place commits option oi of task i at start.
func (t *timeline) place(i, oi, start int) {
	f := &t.fp[i][oi]
	end := start + f.dur
	if end <= start {
		return
	}
	t.busy[f.group] = occupy(t.busy[f.group], start, end)
	if len(f.need) == 0 {
		return
	}
	a, b := t.split(start, end)
	for k := a; k < b; k++ {
		row := t.use[k*t.nres:]
		for _, q := range f.need {
			row[q.r] += q.d
		}
	}
}

// remove undoes a placement. The breakpoints at start and end go again if
// the rows on either side of them are now exactly equal.
func (t *timeline) remove(i, oi, start int) {
	f := &t.fp[i][oi]
	end := start + f.dur
	if end <= start {
		return
	}
	t.busy[f.group] = release(t.busy[f.group], start, end)
	if len(f.need) == 0 {
		return
	}
	a, b := t.split(start, end)
	for k := a; k < b; k++ {
		row := t.use[k*t.nres:]
		for _, q := range f.need {
			row[q.r] -= q.d
		}
	}
	t.merge(a, b)
}

// seg returns the index of the segment containing step s. Consecutive
// lookups land close together, so the walk starts at the previous answer.
func (t *timeline) seg(s int) int {
	pos := t.pos
	k := min(t.hint, len(pos)-1)
	if pos[k] <= s {
		for k+1 < len(pos) && pos[k+1] <= s {
			k++
		}
	} else {
		for pos[k] > s { // pos[0] = math.MinInt stops the walk
			k--
		}
	}
	t.hint = k
	return k
}

// split ensures breakpoints at s < e and returns the indices of the
// segments that start there. A new segment inherits the usage row of the
// segment it was cut from; both insertions share one shift of the tail.
func (t *timeline) split(s, e int) (int, int) {
	n := t.nres
	a := t.seg(s)
	b := a
	for b+1 < len(t.pos) && t.pos[b+1] <= e {
		b++
	}
	sa, sb := 0, 0
	if t.pos[a] != s {
		sa = 1
	}
	if t.pos[b] != e {
		sb = 1
	}
	ins := sa + sb
	if ins == 0 {
		return a, b
	}
	l := len(t.pos)
	t.pos = slices.Grow(t.pos, ins)[:l+ins]
	t.use = slices.Grow(t.use, ins*n)[:(l+ins)*n]
	copy(t.pos[b+1+ins:], t.pos[b+1:l])
	copy(t.use[(b+1+ins)*n:], t.use[(b+1)*n:l*n])
	if sb == 1 {
		t.pos[b+sa+1] = e
		t.copyRow(b+sa+1, b)
	}
	if sa == 1 {
		copy(t.pos[a+2:b+2], t.pos[a+1:b+1])
		copy(t.use[(a+2)*n:(b+2)*n], t.use[(a+1)*n:(b+1)*n])
		t.pos[a+1] = s
		t.copyRow(a+1, a)
	}
	return a + sa, b + ins
}

// merge drops the breakpoints at indices a < b (both from split) whose
// segment's usage row
// equals its left neighbour's exactly, with one shift of the tail.
// Breakpoints strictly between a and b belong to other placements and are
// left alone: an unmerged pair of equal rows is only a redundant breakpoint,
// never a wrong value.
func (t *timeline) merge(a, b int) {
	n := t.nres
	l := len(t.pos)
	ma := a >= 1 && rowsEqual(t.use[(a-1)*n:a*n], t.use[a*n:(a+1)*n])
	mb := rowsEqual(t.use[(b-1)*n:b*n], t.use[b*n:(b+1)*n])
	switch {
	case ma && mb:
		copy(t.pos[a:], t.pos[a+1:b])
		copy(t.use[a*n:], t.use[(a+1)*n:b*n])
		copy(t.pos[b-1:], t.pos[b+1:])
		copy(t.use[(b-1)*n:], t.use[(b+1)*n:])
		l -= 2
	case ma:
		copy(t.pos[a:], t.pos[a+1:])
		copy(t.use[a*n:], t.use[(a+1)*n:])
		l--
	case mb:
		copy(t.pos[b:], t.pos[b+1:])
		copy(t.use[b*n:], t.use[(b+1)*n:])
		l--
	default:
		return
	}
	t.pos = t.pos[:l]
	t.use = t.use[:l*n]
}

// copyRow copies segment src's usage row over segment dst's.
func (t *timeline) copyRow(dst, src int) {
	n := t.nres
	d, s := t.use[dst*n:dst*n+n], t.use[src*n:src*n+n]
	for r := range d {
		d[r] = s[r]
	}
}

func rowsEqual(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// firstEndAfter returns the index of the first interval with hi > x. Like
// seg's walk, the scan runs back from the end: probes and placements cluster
// near the end of the placed schedule.
func firstEndAfter(iv []span, x int) int {
	i := len(iv)
	for i > 0 && iv[i-1].hi > x {
		i--
	}
	return i
}

// occupy marks [lo, hi) busy, merging the intervals it overlaps.
func occupy(iv []span, lo, hi int) []span {
	i := firstEndAfter(iv, lo)
	j := i // first interval starting at or after hi
	for j < len(iv) && iv[j].lo < hi {
		j++
	}
	if i == j {
		iv = append(iv, span{})
		copy(iv[i+1:], iv[i:])
		iv[i] = span{lo, hi}
		return iv
	}
	iv[i] = span{min(lo, iv[i].lo), max(hi, iv[j-1].hi)}
	return append(iv[:i+1], iv[j:]...)
}

// release marks [lo, hi) free, trimming or splitting the intervals it cuts.
func release(iv []span, lo, hi int) []span {
	i := firstEndAfter(iv, lo)
	if i < len(iv) && iv[i] == (span{lo, hi}) {
		return append(iv[:i], iv[i+1:]...) // undoing one placement
	}
	j := i // first interval starting at or after hi
	for j < len(iv) && iv[j].lo < hi {
		j++
	}
	if i == j {
		return iv
	}
	var keep [2]span
	k := 0
	if iv[i].lo < lo {
		keep[k] = span{iv[i].lo, lo}
		k++
	}
	if iv[j-1].hi > hi {
		keep[k] = span{hi, iv[j-1].hi}
		k++
	}
	switch d := k - (j - i); {
	case d > 0: // one interval split in two
		iv = append(iv, span{})
		copy(iv[j+1:], iv[j:])
	case d < 0:
		iv = append(iv[:i+k], iv[j:]...)
	}
	copy(iv[i:], keep[:k])
	return iv
}
