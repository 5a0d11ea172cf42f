package server

import (
	"io"
	"net/http"
	"strconv"

	"ibr/internal/obs"
)

// WriteMetrics emits the engine's full Prometheus text exposition: per-shard
// serving and reclamation gauges/counters (always available — they come from
// Engine.Stats), the allocator cache counters, and, when observability is
// enabled, the histogram families (retire→free age per shard, scan duration,
// free-batch size, op latency) plus the watchdog and flight-recorder series.
// srv may be nil; when set, the connection front end's counters ride along.
func (e *Engine) WriteMetrics(w io.Writer, srv *Server) error {
	p := obs.NewPromWriter(w)
	stats := e.Stats()
	shardLabel := make([][]obs.Label, len(stats))
	for i := range stats {
		shardLabel[i] = []obs.Label{{K: "shard", V: strconv.Itoa(i)}}
	}

	p.Header("ibr_engine_info", "gauge", "Engine configuration (value is always 1).")
	p.Uint("ibr_engine_info", []obs.Label{
		{K: "structure", V: e.cfg.Structure},
		{K: "scheme", V: e.cfg.Scheme},
		{K: "workers_per_shard", V: strconv.Itoa(e.cfg.WorkersPerShard)},
	}, 1)

	p.Header("ibr_ops_total", "counter", "Operations completed per shard.")
	for i, s := range stats {
		p.Uint("ibr_ops_total", shardLabel[i], s.Ops)
	}
	p.Header("ibr_queue_depth", "gauge", "Requests queued per shard.")
	for i, s := range stats {
		p.Int("ibr_queue_depth", shardLabel[i], int64(s.QueueDepth))
	}
	p.Header("ibr_unreclaimed", "gauge", "Retired-but-unreclaimed blocks per shard (the paper's Fig. 9 metric).")
	for i, s := range stats {
		p.Int("ibr_unreclaimed", shardLabel[i], int64(s.Unreclaimed))
	}
	p.Header("ibr_live_blocks", "gauge", "Live node-pool slots per shard.")
	for i, s := range stats {
		p.Uint("ibr_live_blocks", shardLabel[i], s.Live)
	}
	p.Header("ibr_epoch", "gauge", "Shard scheme's current global epoch (0 for epoch-free schemes).")
	for i, s := range stats {
		p.Uint("ibr_epoch", shardLabel[i], s.Epoch)
	}
	p.Header("ibr_epoch_lag", "gauge", "Current epoch minus the oldest reserved lower endpoint, per shard (0 when idle).")
	for i, s := range stats {
		p.Uint("ibr_epoch_lag", shardLabel[i], s.EpochLag)
	}
	p.Header("ibr_scans_total", "counter", "Retire-list scans per shard.")
	for i, s := range stats {
		p.Uint("ibr_scans_total", shardLabel[i], s.Scan.Scans)
	}
	p.Header("ibr_scan_examined_total", "counter", "Retired blocks examined by scans per shard.")
	for i, s := range stats {
		p.Uint("ibr_scan_examined_total", shardLabel[i], s.Scan.Scanned)
	}
	p.Header("ibr_scan_freed_total", "counter", "Blocks freed by scans per shard.")
	for i, s := range stats {
		p.Uint("ibr_scan_freed_total", shardLabel[i], s.Scan.Freed)
	}
	p.Header("ibr_scan_bucket_skips_total", "counter", "Retire buckets kept wholesale by one corner test per shard.")
	for i, s := range stats {
		p.Uint("ibr_scan_bucket_skips_total", shardLabel[i], s.Scan.BucketSkips)
	}
	p.Header("ibr_scan_bucket_frees_total", "counter", "Retire buckets freed wholesale by one corner test per shard.")
	for i, s := range stats {
		p.Uint("ibr_scan_bucket_frees_total", shardLabel[i], s.Scan.BucketFrees)
	}

	p.Header("ibr_tid_quarantines_total", "counter", "Tids quarantined per shard (stalled or dead lease holders whose reservation was cleared and retire list adopted).")
	for i, s := range stats {
		p.Uint("ibr_tid_quarantines_total", shardLabel[i], s.Quarantines)
	}
	p.Header("ibr_blocks_adopted_total", "counter", "Retired blocks adopted from quarantined tids per shard.")
	for i, s := range stats {
		p.Uint("ibr_blocks_adopted_total", shardLabel[i], s.Adopted)
	}
	p.Header("ibr_submits_shed_total", "counter", "Submits refused with ErrShedding per shard (unreclaimed backlog above the hard watermark).")
	for i, s := range stats {
		p.Uint("ibr_submits_shed_total", shardLabel[i], s.Shed)
	}
	p.Header("ibr_shed_episodes_total", "counter", "Times shedding switched on per shard.")
	for i, s := range stats {
		p.Uint("ibr_shed_episodes_total", shardLabel[i], s.ShedEpisodes)
	}
	p.Header("ibr_shedding", "gauge", "Whether the shard is currently shedding load (1) or admitting (0).")
	for i, s := range stats {
		v := uint64(0)
		if s.Shedding {
			v = 1
		}
		p.Uint("ibr_shedding", shardLabel[i], v)
	}
	p.Header("ibr_pool_exhausted_total", "counter", "Puts answered StatusBusy because the shard node pool was exhausted, per shard.")
	for i, s := range stats {
		p.Uint("ibr_pool_exhausted_total", shardLabel[i], s.PoolExhausted)
	}
	p.Header("ibr_worker_deaths_total", "counter", "Worker goroutines lost to panics per shard (each is quarantined and replaced).")
	for i, s := range stats {
		p.Uint("ibr_worker_deaths_total", shardLabel[i], s.Deaths)
	}

	p.Header("ibr_range_legs_total", "counter", "Range scan legs executed per shard (one reservation interval each).")
	for i, s := range stats {
		p.Uint("ibr_range_legs_total", shardLabel[i], s.RangeOps)
	}
	p.Header("ibr_active_scans", "gauge", "Range legs currently holding a reservation per shard.")
	for i, s := range stats {
		p.Int("ibr_active_scans", shardLabel[i], s.ActiveScans)
	}
	p.Header("ibr_unreclaimed_under_scan", "gauge", "Peak retired-but-unreclaimed blocks sampled while a range leg held its reservation, per shard — EBR's grows with scan length, the interval schemes' stays bounded.")
	for i, s := range stats {
		p.Int("ibr_unreclaimed_under_scan", shardLabel[i], s.UnderScanHW)
	}
	p.Header("ibr_expired_total", "counter", "Keys removed by TTL expiry per shard (each retires through the normal scheme path).")
	for i, s := range stats {
		p.Uint("ibr_expired_total", shardLabel[i], s.Expired)
	}
	p.Header("ibr_expiry_pending", "gauge", "Keys currently armed in the expiry wheel per shard.")
	for i, s := range stats {
		p.Int("ibr_expiry_pending", shardLabel[i], int64(s.ExpiryPending))
	}
	p.Header("ibr_retired_total", "counter", "Node retirements per shard, split by what caused them (user delete vs TTL expiry).")
	for i, s := range stats {
		p.Uint("ibr_retired_total", append(shardLabel[i], obs.Label{K: "source", V: "user"}), s.RetiredUser)
		p.Uint("ibr_retired_total", append(shardLabel[i], obs.Label{K: "source", V: "expiry"}), s.RetiredExpiry)
	}

	p.Header("ibr_pool_cache_hits_total", "counter", "Thread-cache Alloc hits per shard pool.")
	p.Header("ibr_pool_cache_misses_total", "counter", "Thread-cache Alloc misses per shard pool.")
	p.Header("ibr_pool_global_refills_total", "counter", "Cache refills served by the global free list per shard pool.")
	p.Header("ibr_pool_fresh_carves_total", "counter", "Cache refills carved from never-used slots per shard pool.")
	for i, sh := range e.shards {
		ps := sh.inst.PoolStats()
		p.Uint("ibr_pool_cache_hits_total", shardLabel[i], ps.CacheHits)
		p.Uint("ibr_pool_cache_misses_total", shardLabel[i], ps.CacheMisses)
		p.Uint("ibr_pool_global_refills_total", shardLabel[i], ps.GlobalRefills)
		p.Uint("ibr_pool_fresh_carves_total", shardLabel[i], ps.FreshCarves)
	}

	if eo := e.obs; eo != nil {
		scheme := []obs.Label{{K: "scheme", V: e.cfg.Scheme}}
		p.Header("ibr_retire_age", "histogram", "Retire-to-free age of reclaimed blocks, in epochs, per shard.")
		for i := range eo.retireAge {
			p.Histogram("ibr_retire_age", append(shardLabel[i], scheme[0]), eo.retireAge[i].Snapshot())
		}
		p.Header("ibr_scan_duration_ns", "histogram", "Retire-list scan wall time in nanoseconds.")
		p.Histogram("ibr_scan_duration_ns", scheme, eo.scanDur.Snapshot())
		p.Header("ibr_free_batch_size", "histogram", "Blocks freed per scan (zero-free scans included).")
		p.Histogram("ibr_free_batch_size", scheme, eo.freeBatch.Snapshot())
		p.Header("ibr_op_latency_ns", "histogram", "In-shard execution latency per op type in nanoseconds (range = one shard leg's scan).")
		for i, h := range eo.opLat {
			p.Histogram("ibr_op_latency_ns", []obs.Label{{K: "op", V: latNames[i]}}, h.Snapshot())
		}
		p.Header("ibr_range_len", "histogram", "Merged result sizes of completed Range scans, in pairs.")
		p.Histogram("ibr_range_len", nil, eo.rangeLen.Snapshot())
		p.Header("ibr_scan_phase_ns", "histogram", "Scan wall time by phase: summarize, bucket_decide, residual_sweep, free_batch.")
		for ph := 0; ph < obs.NumScanPhases; ph++ {
			p.Histogram("ibr_scan_phase_ns", []obs.Label{{K: "phase", V: obs.PhaseNames[ph]}}, eo.phases[ph].Snapshot())
		}

		// Pinned-memory blame: who is responsible for the unreclaimed
		// backlog right now. Top-k per shard keeps the scrape bounded while
		// still naming every meaningful pinner (k > the handful of
		// concurrently stalled tids any recipe injects).
		const blameTopK = 8
		blame := make([][]obs.PinStat, len(eo.scheme))
		for i := range eo.scheme {
			blame[i] = eo.scheme[i].PinnedBlame()
			if len(blame[i]) > blameTopK {
				blame[i] = blame[i][:blameTopK]
			}
		}
		p.Header("ibr_pinned_blocks", "gauge", "Retired-but-unreclaimed blocks charged to the reservation-holding tid that pinned them at the latest scans (top-k per shard).")
		for i, top := range blame {
			for _, ps := range top {
				p.Uint("ibr_pinned_blocks", append(shardLabel[i], obs.Label{K: "tid", V: strconv.Itoa(ps.Tid)}), ps.Blocks)
			}
		}
		p.Header("ibr_pin_age_seconds", "gauge", "How long each blamed tid has been continuously pinning memory.")
		for i, top := range blame {
			for _, ps := range top {
				p.Sample("ibr_pin_age_seconds", append(shardLabel[i], obs.Label{K: "tid", V: strconv.Itoa(ps.Tid)}), ps.Age.Seconds())
			}
		}

		if wd := eo.watchdog; wd != nil {
			p.Header("ibr_stall_alerts_total", "counter", "Stall alerts raised (reservation unchanged past the threshold).")
			p.Uint("ibr_stall_alerts_total", nil, wd.Alerts())
			p.Header("ibr_stalled_reservations", "gauge", "Reservations currently held past the stall threshold.")
			p.Int("ibr_stalled_reservations", nil, wd.Stalled())
		}

		p.Header("ibr_flight_events_total", "counter", "Flight-recorder events written across all rings.")
		p.Uint("ibr_flight_events_total", nil, eo.rec.Written())
		p.Header("ibr_flight_dropped_total", "counter", "Flight-recorder events overwritten before any dump saw them.")
		p.Uint("ibr_flight_dropped_total", nil, eo.rec.Dropped())
	}

	if srv != nil {
		p.Header("ibrd_connections_accepted_total", "counter", "TCP connections accepted.")
		p.Uint("ibrd_connections_accepted_total", nil, srv.Accepted())
		p.Header("ibrd_conns_dropped_proto_total", "counter", "Connections dropped for protocol violations.")
		p.Uint("ibrd_conns_dropped_proto_total", nil, srv.ProtoDropped())
		p.Header("ibrd_frames_rejected_total", "counter", "Frames rejected with an error status but the connection kept.")
		p.Uint("ibrd_frames_rejected_total", nil, srv.ProtoRejected())
	}
	return p.Err()
}

// MetricsHandler serves WriteMetrics as a Prometheus scrape endpoint.
// srv may be nil when no connection front end exists (tests).
func MetricsHandler(e *Engine, srv *Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.ContentType)
		_ = e.WriteMetrics(w, srv)
	})
}

// FlightRecorderHandler dumps the flight recorder as JSONL. The snapshot
// never blocks the writing workers; an engine without observability serves
// 404 so scripts can probe for the capability.
func FlightRecorderHandler(e *Engine) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := e.Obs().Recorder()
		if rec == nil {
			http.Error(w, "flight recorder disabled (run with -obs)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = rec.WriteJSONL(w)
	})
}
