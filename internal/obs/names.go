package obs

// Canonical metric names shared by the solver layers, so exports stay
// consistent across binaries and the docs can reference them.
const (
	// MILP layer (internal/milp).
	MSimplexPivots = "hilp_milp_simplex_pivots_total"
	MBBNodes       = "hilp_milp_bb_nodes_total"
	MBBPruned      = "hilp_milp_bb_pruned_total"

	// Scheduler layer (internal/scheduler).
	MExactNodes      = "hilp_sched_exact_nodes_total"
	MAnnealAccepted  = "hilp_sched_anneal_accepted_total"
	MAnnealRejected  = "hilp_sched_anneal_rejected_total"
	MTabuSteps       = "hilp_sched_tabu_steps_total"
	MSGSSchedules    = "hilp_sched_sgs_schedules_total"
	MSolves          = "hilp_sched_solves_total"
	MSolvePanics     = "hilp_sched_solve_panics_total"
	MLowerBoundSteps = "hilp_sched_lower_bound_steps"
	MMakespanSteps   = "hilp_sched_makespan_steps"

	// MImproverSkipped counts anneal/tabu runs skipped because their starting
	// incumbent already met the lower bound.
	MImproverSkipped = "hilp_improver_skipped_total"

	// Background goroutines guarded by Context.Guard (any layer).
	MGoroutinePanics = "hilp_goroutine_panics_total"

	// Fault-tolerance chain (internal/core fallback + internal/faults).
	MSolveRetries   = "hilp_core_solve_retries_total"
	MSolveFallbacks = "hilp_core_solve_fallbacks_total"
	MSolveDegraded  = "hilp_core_solve_degraded_total"

	// Adaptive-resolution loop (internal/core).
	MEvaluations  = "hilp_core_evaluations_total"
	MRefinements  = "hilp_core_refinements_total"
	MCertifiedGap = "hilp_core_certified_gap"
	MMakespanSec  = "hilp_core_makespan_seconds"

	// Design-space sweeps (internal/dse).
	MSweepPoints       = "hilp_dse_points_total"
	MSweepPointsFailed = "hilp_dse_points_failed_total"
	MSweepPanics       = "hilp_dse_point_panics_total"
	MSweepPointSec     = "hilp_dse_point_seconds"

	// Warm-start sweep engine (internal/dse engine + scheduler warm hints).
	MSweepCacheHits    = "hilp_sweep_cache_hits_total"
	MSweepCacheMisses  = "hilp_sweep_cache_misses_total"
	MSweepWarmUsed     = "hilp_sweep_warmstart_used_total"
	MSweepWarmShortcut = "hilp_sweep_warmstart_shortcut_total"
	MSweepWarmImproved = "hilp_sweep_warmstart_improved_total"
	MSweepPruned       = "hilp_sweep_points_pruned_total"

	// Go runtime telemetry (refreshed per /metrics scrape, see CaptureRuntime).
	MGoGoroutines     = "go_goroutines"
	MGoHeapAllocBytes = "go_heap_alloc_bytes"
	MGoHeapSysBytes   = "go_heap_sys_bytes"
	MGoGCPauseSec     = "go_gc_pause_seconds_total"
	MGoGCCycles       = "go_gc_cycles_total"
	MGoNextGCBytes    = "go_next_gc_bytes"

	// Build identity (labeled info gauge, see SetBuildInfo).
	MBuildInfo = "hilp_build_info"

	// Solve service (internal/server).
	MServeRequests    = "hilp_serve_requests_total"
	MServeErrors      = "hilp_serve_errors_total"
	MServeRejected    = "hilp_serve_rejected_total"
	MServeCacheHits   = "hilp_serve_cache_hits_total"
	MServeCacheMisses = "hilp_serve_cache_misses_total"
	MServeDeadlines   = "hilp_serve_deadline_exceeded_total"
	MServePanics      = "hilp_serve_panics_total"
	MServeRetries     = "hilp_serve_job_retries_total"
	MServeRequestSec  = "hilp_serve_request_seconds"
	MServeInFlight    = "hilp_serve_in_flight"
	MServeJobsActive  = "hilp_serve_jobs_active"

	// Worker-pool and cache depth (refreshed per /metrics scrape).
	MServePoolBusy      = "hilp_serve_pool_busy"
	MServeQueueWaiting  = "hilp_serve_queue_waiting"
	MServeCacheEntries  = "hilp_serve_cache_entries"
	MServeCacheHitRatio = "hilp_serve_cache_hit_ratio"

	// Live telemetry bus (obs.Bus) and SSE streaming.
	MEventsDropped    = "hilp_events_dropped_total"
	MServeSubscribers = "hilp_serve_event_subscribers"

	// OTLP span export (obs.OTLPExporter).
	MOTLPSpansExported = "hilp_otlp_spans_exported_total"
	MOTLPSpansFailed   = "hilp_otlp_spans_failed_total"
	MOTLPSpansDropped  = "hilp_otlp_spans_dropped_total"

	// Crash-recovery journal (internal/journal) and resume paths.
	MJournalAppends       = "hilp_journal_appends_total"
	MJournalFsyncs        = "hilp_journal_fsyncs_total"
	MJournalBytes         = "hilp_journal_bytes_total"
	MJournalReplayRecords = "hilp_journal_replay_records_total"
	MJournalTornTails     = "hilp_journal_torn_tails_total"
	MJournalResumedJobs   = "hilp_serve_resumed_jobs_total"
	MSweepPointsResumed   = "hilp_sweep_points_resumed_total"
)

// StageMetricName maps a request-stage name (see Stages) onto its latency
// histogram, e.g. "cache-lookup" → "hilp_serve_stage_cache_lookup_seconds"
// and "journal:append" → "hilp_serve_stage_journal_append_seconds". Dashes
// and colons become underscores: Prometheus metric names allow neither.
func StageMetricName(stage string) string {
	out := make([]byte, 0, len(stage)+24)
	out = append(out, "hilp_serve_stage_"...)
	for i := 0; i < len(stage); i++ {
		if stage[i] == '-' || stage[i] == ':' {
			out = append(out, '_')
		} else {
			out = append(out, stage[i])
		}
	}
	return string(append(out, "_seconds"...))
}
