package main

import (
	"time"

	"ibr/internal/obs"
	"ibr/internal/server"
)

type metric struct {
	name, unit string
	value      float64
	n          int // samples behind a timing, 0 otherwise
}

type report struct {
	metrics           []metric
	attempted, failed uint64
	errs              []error
	spans             int
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v, 0})
}

func (r *report) addN(name, unit string, v float64, n int) {
	r.metrics = append(r.metrics, metric{name, unit, v, n})
}

func (r *report) result() result {
	out := result{Correct: len(r.errs) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	return out
}

func (r *report) account(p *passResult) {
	r.attempted += p.attempted
	r.failed += p.failed
	r.spans += len(p.spans)
	if p.err != nil {
		r.errs = append(r.errs, p.err)
	}
}

var pointOps = []server.Op{server.OpGet, server.OpPut, server.OpDel}

func (p *passResult) perSec(n uint64) float64 { return float64(n) / p.elapsed.Seconds() }

// slices is how many whole slices the measured window holds (at least one).
func (p *passResult) slices() int { return max(int(p.elapsed/sliceLen), 1) }

// sliceMedian is the median over the window's whole slices of f(slice).
func (p *passResult) sliceMedian(bySlice [][]uint32, f func([]uint32) float64) float64 {
	var per []float64
	for s := 0; s < min(p.slices(), len(bySlice)); s++ {
		if len(bySlice[s]) > 0 {
			per = append(per, f(bySlice[s]))
		}
	}
	return median(per)
}

// gaugeSlices returns, per whole slice of the window, the completed-op rate
// and the mean of the unreclaimed samples.
func (p *passResult) gaugeSlices() (rates, unreclaimed []float64) {
	for s := 0; s < p.slices(); s++ {
		var in []gaugeSample
		for _, g := range p.gauges {
			if int(g.at/sliceLen) == s {
				in = append(in, g)
			}
		}
		if len(in) < 2 {
			continue
		}
		first, last := in[0], in[len(in)-1]
		rates = append(rates, float64(last.ops-first.ops)/(last.at-first.at).Seconds())
		var sum float64
		for _, g := range in {
			sum += float64(g.unreclaimed)
		}
		unreclaimed = append(unreclaimed, sum/float64(len(in)))
	}
	return rates, unreclaimed
}

// e2eReport is the untraced run's end-to-end metrics: each one the median
// over the measured window's one-second slices.
func e2eReport(p *passResult) *report {
	r := &report{}
	r.account(p)
	setup := make([]float64, len(p.setup))
	for i, d := range p.setup {
		setup[i] = d.Seconds()
	}
	// The ds level times 1 in dsTimeEvery point calls but every Range, so
	// mixing the two would overweight ranges: it reports point calls only.
	ops := pointOps
	if p.level != levelDS {
		ops = append([]server.Op{server.OpRange}, pointOps...)
	}
	bySlice, all := p.samples(ops...)
	rates, unreclaimed := p.gaugeSlices()
	r.addN("setup_s", "s", median(setup), len(setup))
	r.addN("ops_per_s", "ops/s", median(rates), len(rates))
	r.addN("p50_us", "us", p.sliceMedian(bySlice, func(xs []uint32) float64 { return quantile(xs, 0.50) / 1e3 }), len(all))
	r.addN("p99_us", "us", p.sliceMedian(bySlice, func(xs []uint32) float64 { return quantile(xs, 0.99) / 1e3 }), len(all))
	r.addN("unreclaimed_mean", "blocks", median(unreclaimed), len(p.gauges))
	return r
}

// tracedRun drives the workload through each layer in turn, with spans on:
// straight into one ds.Map, into Engine.SubmitRequest, and over the wire.
// The workload's own layer gets the full measured time (its numbers are the
// traced counterpart of the end-to-end run); the other two get half.
func tracedRun(w *workload, seed int64, nproc int, warmup, measure time.Duration) ([]*passResult, error) {
	origin := time.Now()
	var passes []*passResult
	for lvl := levelDS; lvl < numLevels; lvl++ {
		d := measure
		if lvl != w.level {
			d = measure / 2
		}
		p, err := runPass(passConfig{w: w, level: lvl, seed: seed, nproc: nproc,
			warmup: warmup, measure: d, setups: 1, traced: true, origin: origin})
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	return passes, nil
}

// layerReport is the traced run's per-layer metrics. ds and mem come from
// the ds pass, engine from the engine pass, wire from the wire pass, and
// core from the pass at the workload's own layer (the reclamation behind
// its end-to-end numbers).
func layerReport(w *workload, passes []*passResult) *report {
	r := &report{}
	for _, p := range passes {
		r.account(p)
	}
	pd, pe, pw := passes[levelDS], passes[levelEngine], passes[levelWire]

	r.add("ds.ops_per_s", "ops/s", pd.perSec(pd.ops))
	_, ins := pd.samples(server.OpPut)
	_, rem := pd.samples(server.OpDel)
	r.addN("ds.insert_ns.p50", "ns", quantile(ins, 0.50), len(ins))
	r.addN("ds.insert_ns.p99", "ns", quantile(ins, 0.99), len(ins))
	r.addN("ds.remove_ns.p50", "ns", quantile(rem, 0.50), len(rem))
	r.addN("ds.remove_ns.p99", "ns", quantile(rem, 0.99), len(rem))
	r.add("ds.insert_ok_ratio", "ratio", ratio(float64(pd.insOK), float64(pd.insAtt)))
	r.add("ds.remove_ok_ratio", "ratio", ratio(float64(pd.remOK), float64(pd.remAtt)))
	r.add("ds.range_pairs_per_call", "count", ratio(float64(pd.pairs), float64(pd.ranges)))

	a, b := pd.after.pool, pd.before.pool
	hits, misses := float64(a.CacheHits-b.CacheHits), float64(a.CacheMisses-b.CacheMisses)
	r.add("mem.allocs_per_op", "count", ratio(float64(a.Allocs-b.Allocs), float64(pd.attempted)))
	r.add("mem.cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	r.add("mem.refills_per_kop", "count", 1e3*ratio(float64(a.GlobalRefills-b.GlobalRefills), float64(pd.attempted)))
	r.add("mem.high_water_slots", "slots", float64(a.HighWater))

	po := passes[w.level]
	sa, sb := po.after.scan, po.before.scan
	scans := float64(sa.Scans - sb.Scans)
	r.add("core.scans_per_kop", "count", 1e3*ratio(scans, float64(po.attempted)))
	r.add("core.freed_per_scan", "blocks", ratio(float64(sa.Freed-sb.Freed), scans))
	r.add("core.freed_per_examined", "ratio", ratio(float64(sa.Freed-sb.Freed), float64(sa.Scanned-sb.Scanned)))
	r.add("core.bucket_skips_per_scan", "count", ratio(float64(sa.BucketSkips-sb.BucketSkips), scans))
	var un []uint32
	var lagMax uint64
	for _, g := range po.gauges {
		un = append(un, uint32(g.unreclaimed))
		lagMax = max(lagMax, g.lag)
	}
	r.addN("core.unreclaimed_p99", "blocks", quantile(un, 0.99), len(un))
	r.add("core.epoch_lag_max", "epochs", float64(lagMax))
	expiry := float64(po.after.retExpiry - po.before.retExpiry)
	r.add("core.retired_expiry_share", "ratio", ratio(expiry, expiry+float64(po.after.retUser-po.before.retUser)))
	for i, name := range obs.PhaseNames {
		h := histDelta(po.after.phases[i], po.before.phases[i])
		r.addN("core.scan_phase_us."+name, "us", ratio(float64(h.Sum), float64(h.Count))/1e3, int(h.Count))
	}

	_, complete := pe.samples(pointOps...)
	qMax := 0
	for _, g := range pe.gauges {
		qMax = max(qMax, g.queue)
	}
	exec := histDelta(pe.after.exec, pe.before.exec)
	completeP50 := quantile(complete, 0.50) / 1e3
	r.add("engine.ops_per_s", "ops/s", pe.perSec(pe.ops))
	r.addN("engine.submit_ns.p50", "ns", quantile(pe.submit, 0.50), len(pe.submit))
	r.addN("engine.submit_ns.p99", "ns", quantile(pe.submit, 0.99), len(pe.submit))
	r.addN("engine.complete_us.p50", "us", completeP50, len(complete))
	r.addN("engine.complete_us.p99", "us", quantile(complete, 0.99)/1e3, len(complete))
	r.addN("engine.exec_ns.p50", "ns", exec.Quantile(0.50), int(exec.Count))
	r.add("engine.queue_wait_us.p50", "us", completeP50-exec.Quantile(0.50)/1e3)
	r.add("engine.queue_depth_max", "count", float64(qMax))
	r.add("engine.range_legs_per_range", "count",
		ratio(float64(pe.after.rangeLegs-pe.before.rangeLegs), float64(pe.ranges)))
	r.add("engine.under_scan_hw", "blocks", float64(pe.after.underScanHW))
	r.add("engine.expired_per_s", "1/s", pe.perSec(pe.after.expired-pe.before.expired))
	r.add("engine.refused_ratio", "ratio", ratio(float64(pe.after.refused-pe.before.refused), float64(pe.attempted)))

	_, point := pw.samples(pointOps...)
	r.add("wire.ops_per_s", "ops/s", pw.perSec(pw.ops))
	r.addN("wire.self_us.p50", "us", quantile(point, 0.50)/1e3-completeP50, len(point))
	r.add("wire.pairs_per_response", "count", ratio(float64(pw.pairs), float64(pw.ranges)))
	r.add("wire.proto_dropped", "count", float64(pw.after.protoDropped))
	r.add("wire.proto_rejected", "count", float64(pw.after.protoRej))

	r.add("trace.spans", "count", float64(r.spans))
	return r
}
