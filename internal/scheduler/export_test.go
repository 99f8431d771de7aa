package scheduler

// Hooks for the external test package (package scheduler_test), whose layer
// benchmarks and oracle checks need core-built instances and so cannot live
// in package scheduler.

// DecoderForTest returns the serial SGS decode of one reusable sgs over p.
func DecoderForTest(p *Problem) func(list, opts []int) (Schedule, bool) {
	return newSGS(p).decode
}

// OracleDecoderForTest is DecoderForTest over the dense-timeline oracle.
func OracleDecoderForTest(p *Problem) func(list, opts []int) (Schedule, bool) {
	return newDenseSGS(p).decode
}

// EarliestStartForTest loads a timeline with every placement of s and returns
// its earliestStart probe, bounded like the SGS bounds it.
func EarliestStartForTest(p *Problem, s Schedule) func(i, oi, ready int) int {
	tl := newTimeline(p)
	for i := range p.Tasks {
		tl.place(i, s.Option[i], s.Start[i])
	}
	maxStart := maxStartBound(p)
	return func(i, oi, ready int) int { return tl.earliestStart(i, oi, ready, maxStart) }
}
