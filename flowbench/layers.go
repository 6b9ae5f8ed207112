package main

import "math"

// layerMetrics fills the per-layer metrics of a traced run: span
// percentiles from the tracer, counter deltas over the run (a new rig's
// counters start at zero), runtime samples, and the two derived values.
func layerMetrics(m map[string]metric, tr *tracer, c layerCounts, rt runtimeStats, tp, plain timedResult) {
	p50 := func(l *spanLog) float64 { return us(quantile(l.sorted(), 0.5)) }
	p99 := func(l *spanLog) float64 { return us(quantile(l.sorted(), 0.99)) }
	count := func(v int64) metric { return metric{float64(v), "count"} }
	ratio := func(a, b int64) metric {
		if b == 0 {
			return metric{0, "ratio"}
		}
		return metric{float64(a) / float64(b), "ratio"}
	}
	perDecision := func(v int64) metric {
		return metric{float64(v) / float64(c.ctl["packet_ins"]), "count"}
	}

	// End-to-end figures of the unwrapped phase that carry no bound: on a
	// shared VM they read the host's stalls as much as the program (see
	// README.md).
	revLat := sortedCopy(plain.rev.lat)
	m["e2e.setup_p50_us"] = metric{us(quantile(plain.lat, 0.5)), "us"}
	m["e2e.setup_p99_us"] = metric{us(quantile(plain.lat, 0.99)), "us"}
	m["e2e.revoke_p50_ms"] = metric{ms(quantile(revLat, 0.5)), "ms"}
	m["e2e.revoke_p99_ms"] = metric{ms(quantile(revLat, 0.99)), "ms"}
	m["e2e.storm_ms"] = metric{stormMS(plain.rev), "ms"}

	m["loadgen.lag_p99_us"] = metric{us(quantile(sortedCopy(tp.send.lagNS), 0.99)), "us"}
	m["loadgen.backlog_max"] = count(tp.send.backlogMax)

	m["openflow.handler_p50_us"] = metric{p50(&tr.handler), "us"}
	m["openflow.handler_p99_us"] = metric{p99(&tr.handler), "us"}
	m["openflow.decode_ns"] = metric{quantile(tr.decode.sorted(), 0.5), "ns"}
	m["openflow.apply_per_decision"] = perDecision(tr.applies.Load())
	m["openflow.apply_p50_us"] = metric{p50(&tr.apply), "us"}
	m["openflow.apply_p99_us"] = metric{p99(&tr.apply), "us"}
	m["openflow.release_per_decision"] = perDecision(tr.releases.Load())
	m["openflow.deletes"] = count(tr.deletes.Load())

	m["core.sync_self_us"] = metric{p50(&tr.syncSelf), "us"}
	m["core.completion_self_us"] = metric{p50(&tr.completionSelf), "us"}
	m["core.cache_hits"] = count(c.ctl["response_cache_hits"])
	m["core.megaflow_hits"] = count(c.ctl["megaflow_hits"])
	m["core.headeronly"] = count(c.ctl["decisions_headeronly"])
	m["core.flows_allowed"] = count(c.ctl["flows_allowed"])
	m["core.flows_denied"] = count(c.ctl["flows_denied"])
	m["core.voided"] = count(c.ctl["revocations_inflight"])
	m["core.revocations_raced"] = count(c.ctl["revocations_raced"])
	m["core.duplicate_packet_ins"] = count(c.ctl["duplicate_packet_ins"])
	m["core.install_errors"] = count(c.ctl["install_errors"])
	m["core.fast_ratio"] = ratio(c.ctl["response_cache_hits"]+c.ctl["megaflow_hits"]+c.ctl["decisions_headeronly"], c.ctl["packet_ins"])

	m["query.async_p50_us"] = metric{p50(&tr.async), "us"}
	m["query.async_p99_us"] = metric{p99(&tr.async), "us"}
	m["query.engine_wait_us"] = metric{p50(&tr.engineWait), "us"}
	m["query.coalesce_hits"] = count(c.eng["engine_coalesce_hits"])
	m["query.negcache_hits"] = count(c.eng["engine_negcache_hits"])
	m["query.retries"] = count(c.eng["engine_retries"])
	m["query.timeouts"] = count(c.eng["engine_timeouts"])

	m["pool.exchange_p50_us"] = metric{p50(&tr.exchange), "us"}
	m["pool.exchange_p99_us"] = metric{p99(&tr.exchange), "us"}
	m["pool.exchanges_per_decision"] = perDecision(tr.exchanges.Load())
	m["pool.dials"] = count(c.pool["pool_dials"])
	m["pool.updates"] = count(c.pool["pool_updates"])

	m["daemon.queries"] = count(c.daemonQueries)
	m["daemon.memo_evictions"] = count(c.memoEvictions)
	m["daemon.updates_pushed"] = count(c.daemonUpdates)

	m["revoke.update_p50_us"] = metric{p50(&tr.update), "us"}
	m["revoke.update_p99_us"] = metric{p99(&tr.update), "us"}
	m["revoke.flows_torn"] = count(c.ctl["revocations_flows"])
	m["revoke.noop_ratio"] = ratio(c.ctl["revocations_noop"], c.ctl["revocations_updates"])

	// Only the forward workload runs a replica set; elsewhere these are 0.
	m["cluster.forward_p50_us"] = metric{orZero(p50(&tr.forward)), "us"}
	m["cluster.forward_p99_us"] = metric{orZero(p99(&tr.forward)), "us"}
	m["cluster.forwarded"] = count(c.cluster["cluster_events_forwarded"])
	m["cluster.fallbacks"] = count(c.cluster["cluster_forward_fallbacks"])

	m["runtime.gc_cycles"] = count(int64(rt.gcCycles))
	m["runtime.gc_pause_ms"] = metric{ms(float64(rt.gcPauseNS)), "ms"}
	m["runtime.goroutines_max"] = count(int64(rt.goroutines))

	m["trace_overhead"] = metric{quantile(tp.lat, 0.5) / quantile(plain.lat, 0.5), "ratio"}
	m["unattributed_share"] = metric{tr.unattributed(tp.bufs, tp.sentNS, tp.lat2), "ratio"}
}

// orZero maps a span statistic with no samples (NaN) to 0.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
