package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hilp"
	"hilp/internal/core"
	"hilp/internal/dse"
	"hilp/internal/journal"
	"hilp/internal/soc"
	"hilp/internal/wire"
)

const sweepJobID = "sweep"

// sweepSetup is what one sweep-dse batch needs before it starts: its inputs
// and an open journal holding the job's start record, as hilp-dse
// -checkpoint opens it.
type sweepSetup struct {
	w     hilp.Workload
	specs []soc.Spec
	dir   string
	jnl   *journal.Journal
}

// setupSweep generates the k-th batch and opens a fresh journal in a
// temporary directory inside the checkout, returning the time it took.
func (r *runner) setupSweep(k int) (sweepSetup, time.Duration, error) {
	t := time.Now()
	w, specs := sweepSpecs(r.seed, k)
	dir, err := os.MkdirTemp(r.tmp, "journal-")
	if err != nil {
		return sweepSetup{}, 0, err
	}
	jnl, err := journal.Open(dir, journal.Options{})
	if err == nil {
		err = jnl.Append(wire.JournalRecord{
			Kind:  wire.JournalKindJobStart,
			JobID: sweepJobID,
			Start: &wire.JournalJobStart{Total: len(specs)},
		})
		if err == nil {
			err = jnl.Sync()
		}
		if err != nil {
			jnl.Close()
		}
	}
	if err != nil {
		os.RemoveAll(dir)
		return sweepSetup{}, 0, fmt.Errorf("opening journal: %w", err)
	}
	return sweepSetup{w: w, specs: specs, dir: dir, jnl: jnl}, time.Since(t), nil
}

func (s sweepSetup) discard() {
	s.jnl.Close()
	os.RemoveAll(s.dir)
}

// batchOutcome is one completed sweep-dse batch.
type batchOutcome struct {
	points []dse.Point
	wire   [][]byte // each point's wire encoding, to compare traced and untraced runs
	stats  dse.BatchStats
	// intervals holds, for each point the engine solved (not a cache hit,
	// not pruned), the ms since the previous point completed.
	intervals    []float64
	elapsed      time.Duration
	journalBytes int64 // traced runs only
}

// runBatch runs one SolveBatch over the set-up inputs with every completed
// point appended to the journal, then closes the journal and replays it.
// Every point is an op; traced runs time the journal calls.
func (r *runner) runBatch(s sweepSetup, traced bool) (batchOutcome, error) {
	defer os.RemoveAll(s.dir)
	ctx := context.Background()
	var out batchOutcome
	ops := make([]*op, len(s.specs))
	for i := range ops {
		ops[i] = r.begin()
	}
	seen := make([]bool, len(s.specs))
	var appendErr error
	start := time.Now()
	last := start
	hook := func(i int, p hilp.Point) {
		now := time.Now()
		if !p.CacheHit && !p.Pruned {
			out.intervals = append(out.intervals, float64(now.Sub(last).Nanoseconds())/1e6)
		}
		last = now
		ops[i].require(!seen[i], "point %d reported twice", i)
		seen[i] = true
		rec := wire.JournalRecord{
			Kind:  wire.JournalKindPoint,
			JobID: sweepJobID,
			Point: &wire.JournalPoint{Index: i, Point: dse.ToWirePoint(p)},
		}
		var err error
		if traced {
			err = s.jnl.Append(rec)
			r.spans.record("journal.append", i, now)
		} else {
			err = s.jnl.Append(rec)
		}
		if err != nil && appendErr == nil {
			appendErr = err
		}
	}
	br, err := hilp.SolveBatch(ctx, s.w, s.specs,
		hilp.WithProfile(hilp.DSEProfile),
		hilp.WithWorkers(1),
		hilp.WithCache(true), hilp.WithWarmStart(true), hilp.WithPruning(true),
		hilp.WithCheckpoint(hook))
	if err != nil {
		s.jnl.Close()
		return out, err
	}
	if err := s.jnl.Append(wire.JournalRecord{
		Kind: wire.JournalKindJobEnd, JobID: sweepJobID, End: &wire.JournalJobEnd{Status: "done"},
	}); err != nil && appendErr == nil {
		appendErr = err
	}
	ts := time.Now()
	if err := s.jnl.Sync(); err != nil && appendErr == nil {
		appendErr = err
	}
	if traced {
		r.spans.record("journal.sync", 0, ts)
	}
	if err := s.jnl.Close(); err != nil && appendErr == nil {
		appendErr = err
	}
	if appendErr != nil {
		return out, fmt.Errorf("journal: %w", appendErr)
	}
	if traced {
		if out.journalBytes, err = dirSize(s.dir); err != nil {
			return out, err
		}
	}
	tr := time.Now()
	jobs, _, err := journal.ReplayJobs(s.dir)
	if traced {
		r.spans.record("journal.replay", 0, tr)
	}
	out.elapsed = time.Since(start)
	if err != nil {
		return out, fmt.Errorf("journal replay: %w", err)
	}
	var replayed map[int]wire.Point
	if len(jobs) == 1 && jobs[0].JobID == sweepJobID && jobs[0].Terminal() {
		replayed = jobs[0].Points
	} else {
		r.violation("journal replay returned %d jobs, want one finished job %q", len(jobs), sweepJobID)
	}

	out.points, out.stats = br.Points, br.Stats
	for i, p := range br.Points {
		o := ops[i]
		o.require(seen[i], "point %d never reported to the checkpoint hook", i)
		o.require(p.Err == nil, "point %d (%s): %v", i, p.Label, p.Err)
		if p.Pruned {
			o.require(p.SpeedupBound > 0, "pruned point %d (%s) carries no SpeedupBound", i, p.Label)
		} else if p.Err == nil {
			o.require(!p.Cancelled && !p.Degraded, "point %d (%s): cancelled=%v degraded=%v", i, p.Label, p.Cancelled, p.Degraded)
			o.require(p.Gap >= 0 && p.Gap <= 1, "point %d (%s): gap %g outside [0,1]", i, p.Label, p.Gap)
			lb := core.AnalyticLowerBoundSec(s.w, p.Spec)
			o.require(p.MakespanSec >= lb*(1-1e-9), "point %d (%s): makespan %.6gs below analytic bound %.6gs", i, p.Label, p.MakespanSec, lb)
		}
		wp := dse.ToWirePoint(p)
		enc, err := json.Marshal(wp)
		o.require(err == nil, "point %d: encoding: %v", i, err)
		out.wire = append(out.wire, enc)
		got, ok := replayed[i]
		genc, _ := json.Marshal(got)
		o.require(ok && string(genc) == string(enc), "point %d: journal replay returned %s, want %s", i, genc, enc)
		o.end()
	}
	return out, nil
}

func dirSize(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// sweepLoop runs batches until budget is spent (at least one).
func (r *runner) sweepLoop(budget time.Duration, traced bool, setups *[]float64) ([]batchOutcome, time.Duration, error) {
	var batches []batchOutcome
	var measured time.Duration
	for k := 0; k == 0 || measured < budget; k++ {
		s, d, err := r.setupSweep(k)
		if err != nil {
			return nil, 0, err
		}
		*setups = append(*setups, d.Seconds())
		b, err := r.runBatch(s, traced)
		if err != nil {
			return nil, 0, err
		}
		measured += b.elapsed
		batches = append(batches, b)
	}
	return batches, measured, nil
}

// extraSetups repeats set-up until setups holds setupReps samples.
func (r *runner) extraSetups(setups *[]float64) error {
	for len(*setups) < setupReps {
		s, d, err := r.setupSweep(0)
		if err != nil {
			return err
		}
		s.discard()
		*setups = append(*setups, d.Seconds())
	}
	return nil
}

// sweepDSE is the sweep-dse workload: SolveBatch with cache, warm starts and
// pruning over the seeded lattice slices, journaled point by point and
// replayed after each batch, repeated until the time budget is spent.
func (r *runner) sweepDSE() error {
	var setups []float64
	if err := r.extraSetups(&setups); err != nil {
		return err
	}
	a0 := allocMB()
	batches, measured, err := r.sweepLoop(r.seconds, false, &setups)
	if err != nil {
		return err
	}
	var lat []float64
	n := 0
	for _, b := range batches {
		lat = append(lat, b.intervals...)
		n += len(b.points)
	}
	r.m.set("setup_s", "s", median(setups))
	r.m.set("ops_per_s", "ops/s", float64(n)/measured.Seconds())
	r.m.latency(lat)
	var q quality
	hv := 0.0
	for _, b := range batches {
		var bq quality
		for _, p := range b.points {
			if !p.Pruned && p.Err == nil {
				q.gaps = append(q.gaps, p.Gap)
				q.speedups = append(q.speedups, p.Speedup)
				bq.add(p.Spec, p.Speedup, p.Gap)
			}
		}
		hv += bq.hypervolume()
	}
	r.m.set("gap_mean", "ratio", mean(q.gaps))
	r.m.set("speedup_geomean", "x", geomean(q.speedups))
	r.m.set("hypervolume", "mm2x", hv/float64(len(batches)))
	r.m.set("alloc_mb_per_op", "MB/op", (allocMB()-a0)/float64(n))
	return nil
}

// sweepDSETrace runs untraced batches for half the budget, then traced ones
// for the other half, and reports the dse and journal layers.
func (r *runner) sweepDSETrace() error {
	var setups []float64
	plain, plainT, err := r.sweepLoop(r.seconds/2, false, &setups)
	if err != nil {
		return err
	}
	traced, tracedT, err := r.sweepLoop(r.seconds/2, true, &setups)
	if err != nil {
		return err
	}
	for i := range traced[0].wire {
		if string(traced[0].wire[i]) != string(plain[0].wire[i]) {
			r.violation("traced batch point %d differs from untraced: %s vs %s", i, traced[0].wire[i], plain[0].wire[i])
		}
	}
	st := traced[0].stats
	r.m.set("dse.solved", "count", float64(st.Solved))
	r.m.set("dse.cache_hits", "count", float64(st.CacheHits))
	r.m.set("dse.warm_started", "count", float64(st.WarmStarted))
	r.m.set("dse.pruned", "count", float64(st.Pruned))
	r.m.set("dse.reuse_frac", "ratio", ratio(float64(st.CacheHits+st.WarmStarted+st.Pruned), float64(st.Points)))
	var intervals []float64
	var points, journalBytes int64
	for _, b := range traced {
		intervals = append(intervals, b.intervals...)
		points += int64(len(b.points))
		journalBytes += b.journalBytes
	}
	r.m.set("dse.point_interval_ms", "ms", median(intervals))
	r.m.set("journal.append_ms", "ms", median(r.spans.durations("journal.append")))
	r.m.set("journal.sync_ms", "ms", median(r.spans.durations("journal.sync")))
	r.m.set("journal.appends", "count", float64(len(r.spans.durations("journal.append")))/float64(len(traced)))
	r.m.set("journal.bytes_per_point", "bytes", float64(journalBytes)/float64(points))
	r.m.set("journal.replay_ms", "ms", median(r.spans.durations("journal.replay")))
	perPoint := func(bs []batchOutcome, d time.Duration) float64 {
		n := 0
		for _, b := range bs {
			n += len(b.points)
		}
		return d.Seconds() / float64(n)
	}
	r.m.set("trace_overhead_frac", "ratio", perPoint(traced, tracedT)/perPoint(plain, plainT)-1)
	r.fillLayers()
	return nil
}
