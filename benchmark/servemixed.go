package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"hilp/internal/core"
	"hilp/internal/server"
	"hilp/internal/wire"
)

// scrapeEvery is the period of the /metrics scraper that runs beside the
// clients.
const scrapeEvery = 100 * time.Millisecond

// reply is one client request as the client saw it.
type reply struct {
	pool    int
	first   bool // first time this round that the request is sent
	status  int
	cache   string
	body    []byte
	ms      float64
	reqSize int
}

// serveRound is one serve-mixed round: a fresh in-process server, two
// closed-loop clients sending their sequences, and a periodic scraper.
type serveRound struct {
	replies []reply
	elapsed time.Duration
}

// runRound starts a fresh server (timed as set-up), plays plan against it
// and shuts it down. Replies come back in client order. A traced round
// records a span per request, named by its X-HILP-Cache header, and per
// /metrics scrape.
func (r *runner) runRound(plan servePlan, traced bool) (serveRound, time.Duration, error) {
	t0 := time.Now()
	srv := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	setup := time.Since(t0)
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			r.violation("server shutdown: %v", err)
		}
	}()
	client := ts.Client()

	var out serveRound
	perClient := make([][]reply, len(plan.Clients))
	var wg sync.WaitGroup
	done := make(chan struct{})
	start := time.Now()
	for c, seq := range plan.Clients {
		wg.Add(1)
		go func(c int, seq []int) {
			defer wg.Done()
			sent := map[int]bool{}
			for _, idx := range seq {
				body := plan.Pool[idx].Body
				t := time.Now()
				rep := reply{pool: idx, first: !sent[idx], reqSize: len(body)}
				sent[idx] = true
				resp, err := client.Post(ts.URL+"/v1/evaluate", "application/json", bytes.NewReader(body))
				if err == nil {
					rep.status = resp.StatusCode
					rep.cache = resp.Header.Get("X-HILP-Cache")
					rep.body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				rep.ms = msSince(t)
				if traced {
					r.spans.record("server."+rep.cache, idx, t)
				}
				if err != nil {
					rep.status = -1
					rep.body = []byte(err.Error())
				}
				perClient[c] = append(perClient[c], rep)
			}
		}(c, seq)
	}
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		tick := time.NewTicker(scrapeEvery)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			t := time.Now()
			resp, err := client.Get(ts.URL + "/metrics")
			ok := err == nil && resp.StatusCode == http.StatusOK
			var body []byte
			if err == nil {
				body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
			}
			if traced {
				r.spans.record("obs.metrics_scrape", 0, t)
			}
			if !ok || err != nil || !strings.Contains(string(body), "hilp_serve_requests_total") {
				r.violation("/metrics scrape failed: err=%v ok=%v", err, ok)
			}
		}
	}()
	wg.Wait()
	out.elapsed = time.Since(start)
	close(done)
	<-scrapeDone
	for _, reps := range perClient {
		out.replies = append(out.replies, reps...)
	}
	return out, setup, nil
}

// checkReplies applies the per-request checks: status 200, a miss on the
// first send of a request and a hit afterwards, a sound result, and a hit
// body byte-identical to the miss body of the same request. bodies holds the
// first miss body seen for each pool request, across rounds.
func (r *runner) checkReplies(plan servePlan, round serveRound, bodies map[int][]byte) {
	for _, rep := range round.replies {
		o := r.begin()
		o.require(rep.status == http.StatusOK, "request %d: status %d: %s", rep.pool, rep.status, rep.body)
		if rep.status != http.StatusOK {
			o.end()
			continue
		}
		want := "hit"
		if rep.first {
			want = "miss"
		}
		o.require(rep.cache == want, "request %d: X-HILP-Cache %q, want %q", rep.pool, rep.cache, want)
		if prev, ok := bodies[rep.pool]; ok {
			o.require(bytes.Equal(prev, rep.body), "request %d: %s body differs from the miss body", rep.pool, rep.cache)
		} else {
			bodies[rep.pool] = rep.body
		}
		var resp wire.EvaluateResponse
		err := json.Unmarshal(rep.body, &resp)
		o.require(err == nil, "request %d: decoding response: %v", rep.pool, err)
		res := resp.Result
		o.require(!res.Cancelled && !res.Degraded, "request %d: cancelled=%v degraded=%v", rep.pool, res.Cancelled, res.Degraded)
		o.require(res.Gap >= 0 && res.Gap <= 1 && res.MakespanSec > 0, "request %d: gap %g, makespan %g", rep.pool, res.Gap, res.MakespanSec)
		if req := plan.Pool[rep.pool]; req.Template {
			lb := core.AnalyticLowerBoundSec(req.W, req.Spec)
			o.require(res.MakespanSec >= lb*(1-1e-9), "request %d: makespan %.6gs below analytic bound %.6gs", rep.pool, res.MakespanSec, lb)
		}
		o.end()
	}
}

// serveLoop plays rounds until budget is spent (at least one).
func (r *runner) serveLoop(plan servePlan, budget time.Duration, traced bool, bodies map[int][]byte, setups *[]float64) ([]serveRound, time.Duration, error) {
	var rounds []serveRound
	var measured time.Duration
	for len(rounds) == 0 || measured < budget {
		t := time.Now()
		p, err := newServePlan(r.seed)
		if err != nil {
			return nil, 0, err
		}
		gen := time.Since(t)
		if len(p.Pool) != len(plan.Pool) {
			return nil, 0, fmt.Errorf("serve plan is not reproducible")
		}
		round, setup, err := r.runRound(p, traced)
		if err != nil {
			return nil, 0, err
		}
		*setups = append(*setups, (gen + setup).Seconds())
		r.checkReplies(plan, round, bodies)
		measured += round.elapsed
		rounds = append(rounds, round)
	}
	return rounds, measured, nil
}

// serveMixed is the serve-mixed workload: rounds against a fresh in-process
// hilp-serve, each with two closed-loop clients, until the time budget is
// spent.
func (r *runner) serveMixed() error {
	plan, err := newServePlan(r.seed)
	if err != nil {
		return err
	}
	var setups []float64
	a0 := allocMB()
	rounds, _, err := r.serveLoop(plan, r.seconds, false, map[int][]byte{}, &setups)
	if err != nil {
		return err
	}
	var lat, rates []float64
	for _, rd := range rounds {
		for _, rep := range rd.replies {
			lat = append(lat, rep.ms)
		}
		rates = append(rates, float64(len(rd.replies))/rd.elapsed.Seconds())
	}
	r.m.set("setup_s", "s", median(setups))
	r.m.set("ops_per_s", "ops/s", median(rates))
	r.m.latency(lat)
	var q quality
	for _, rep := range rounds[0].replies {
		if !rep.first || rep.status != http.StatusOK {
			continue
		}
		var resp wire.EvaluateResponse
		if json.Unmarshal(rep.body, &resp) != nil {
			continue
		}
		if req := plan.Pool[rep.pool]; req.Template {
			q.add(req.Spec, resp.Result.Speedup, resp.Result.Gap)
		} else {
			q.gaps = append(q.gaps, resp.Result.Gap)
			q.speedups = append(q.speedups, resp.Result.Speedup)
		}
	}
	q.report(r.m)
	r.m.set("alloc_mb_per_op", "MB/op", (allocMB()-a0)/float64(len(lat)))
	return nil
}

// serveMixedTrace plays untraced rounds for half the budget, then traced
// rounds for the other half, and reports the server, wire and obs layers.
func (r *runner) serveMixedTrace() error {
	plan, err := newServePlan(r.seed)
	if err != nil {
		return err
	}
	var setups []float64
	bodies := map[int][]byte{}
	plain, plainT, err := r.serveLoop(plan, r.seconds/2, false, bodies, &setups)
	if err != nil {
		return err
	}
	traced, tracedT, err := r.serveLoop(plan, r.seconds/2, true, bodies, &setups)
	if err != nil {
		return err
	}
	var rejected, reqBytes, respBytes, n float64
	for _, rd := range traced {
		for _, rep := range rd.replies {
			n++
			reqBytes += float64(rep.reqSize)
			respBytes += float64(len(rep.body))
			if rep.status == http.StatusTooManyRequests {
				rejected++
			}
		}
	}
	hits := r.spans.durations("server.hit")
	r.m.set("server.hit_p50_ms", "ms", median(hits))
	r.m.set("server.miss_p50_ms", "ms", median(r.spans.durations("server.miss")))
	r.m.set("server.hit_frac", "ratio", float64(len(hits))/n)
	r.m.set("server.rejected", "count", rejected)
	r.m.set("wire.request_bytes", "bytes", reqBytes/n)
	r.m.set("wire.response_bytes", "bytes", respBytes/n)
	r.m.set("obs.metrics_scrape_ms", "ms", median(r.spans.durations("obs.metrics_scrape")))
	perReq := func(rs []serveRound, d time.Duration) float64 {
		k := 0
		for _, rd := range rs {
			k += len(rd.replies)
		}
		return d.Seconds() / float64(k)
	}
	r.m.set("trace_overhead_frac", "ratio", perReq(traced, tracedT)/perReq(plain, plainT)-1)
	r.fillLayers()
	return nil
}
