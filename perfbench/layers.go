package main

import (
	"sort"

	"aimq/internal/obs"
)

// perLayer lists every per-layer metric a trace run reports, with its unit.
// README.md maps each to the end-to-end metric it should move.
var perLayer = []struct{ name, unit string }{
	{"loadgen.lag_max_ms", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.failed", "count"},
	{"trace.overhead_p50_ms", "ms"},
	{"trace.traced_requests", "count"},
	{"service.hit_ratio", "ratio"},
	{"service.shared_ratio", "ratio"},
	{"service.hit_self_p50_us", "us"},
	{"service.miss_self_ms", "ms"},
	{"webdb.client.calls_per_miss", "count"},
	{"webdb.client.busy_ms_per_miss", "ms"},
	{"webdb.client.call_p50_us", "us"},
	{"webdb.client.self_us_per_call", "us"},
	{"webdb.wire_us_per_call", "us"},
	{"webdb.server.self_us_per_call", "us"},
	{"webdb.client.conn_reuse_ratio", "ratio"},
	{"webdb.client.resp_bytes_per_call", "bytes"},
	{"webdb.client.retries", "count"},
	{"engine.self_us_per_call", "us"},
	{"engine.busy_us_per_call", "us"},
	{"engine.rows_scanned_per_call", "count"},
	{"engine.tuples_returned_per_call", "count"},
	{"engine.chunks_visited_per_call", "count"},
	{"path.total_ms", "ms"},
	{"path.front_ms", "ms"},
	{"path.service_ms", "ms"},
	{"path.client_ms", "ms"},
	{"path.wire_ms", "ms"},
	{"path.server_ms", "ms"},
	{"path.engine_ms", "ms"},
	{"path.source_hop_share", "ratio"},
	{"runtime.allocs_per_req", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"learn.total_s", "s"},
	{"learn.source_s", "s"},
	{"learn.source_calls", "count"},
	{"learn.tuples_probed", "count"},
	{"learn.stage.probe_ms", "ms"},
	{"learn.stage.mine_ms", "ms"},
	{"learn.stage.order_ms", "ms"},
	{"learn.stage.supertuple_ms", "ms"},
	{"learn.stage.snapshot_ms", "ms"},
	{"lifecycle.refresh_s", "s"},
	{"lifecycle.promotions", "count"},
	{"lifecycle.rejections", "count"},
	{"service.misses_per_swap", "count"},
	{"audit.written", "count"},
	{"audit.dropped", "count"},
}

// withUnits attaches units, reporting 0 for a metric the workload does not
// exercise (lifecycle.* outside relearn-drift, hit metrics on
// cold-distinct).
func withUnits(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	return out
}

// learnMetrics adds one traced setup's learn figures to acc: the
// service.BuildModel span, the source calls made under it, and the stage
// timings BuildModel reports itself.
func learnMetrics(spans []span, ls *obs.LearnStats, acc map[string][]float64) {
	learnIDs := map[uint64]bool{}
	for _, s := range spans {
		if s.layer == layerLearn && s.parent == 0 {
			learnIDs[s.id] = true
			acc["learn.total_s"] = append(acc["learn.total_s"], float64(s.dur())/1e9)
		}
	}
	var busy, calls float64
	for _, s := range spans {
		if s.layer == layerClient && learnIDs[s.parent] {
			busy += float64(s.dur())
			calls++
		}
	}
	acc["learn.source_s"] = append(acc["learn.source_s"], busy/1e9)
	acc["learn.source_calls"] = append(acc["learn.source_calls"], calls)
	if ls == nil {
		return
	}
	acc["learn.tuples_probed"] = append(acc["learn.tuples_probed"], float64(ls.ProbedTuples))
	for _, st := range ls.Stages {
		k := "learn.stage." + st.Name + "_ms"
		acc[k] = append(acc[k], st.DurMs)
	}
}

// breakdown splits one traced request's latency along its blocking path:
// the generator-side wait and HTTP front, then each layer's self time
// summed over the request's span tree. The parts add up to the latency.
type breakdown struct {
	latency                                      float64 // ms
	front, service, client, wire, server, engine float64 // ms
}

// layerMetrics derives the span-based per-layer figures of the measured
// window. Only traced requests have spans; a computed ("miss") request is
// one that was neither cached nor shared.
func layerMetrics(spans []span, outs []outcome, mismatch []bool) map[string]float64 {
	self := selfTimes(spans)
	kids := map[uint64][]span{}
	svcByReq := map[string]span{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
		if s.layer == layerService {
			svcByReq[s.req] = s
		}
	}
	selfMs := func(id uint64) float64 { return float64(self[id]) / 1e6 }
	var (
		traced, untraced, hitSelf, missSelf, callDur []float64
		parts                                        []breakdown
		calls, rts, reused, bytes, servers, engines  float64
		misses, hits, shared, ok, lagMax             float64
		miss                                         breakdown
	)
	for i := range outs {
		o := &outs[i]
		lagMax = max(lagMax, ms(o.lag()))
		if !o.answered || mismatch[i] {
			continue
		}
		ok++
		if o.body.Cached {
			hits++
		}
		if o.body.Shared {
			shared++
		}
		lat := ms(o.latency())
		if !o.traced {
			untraced = append(untraced, lat)
			continue
		}
		traced = append(traced, lat)
		sp, found := svcByReq[o.reqID]
		if !found {
			continue
		}
		b := breakdown{latency: lat, front: lat - float64(sp.dur())/1e6, service: selfMs(sp.id)}
		for _, c := range kids[sp.id] {
			if c.layer != layerClient {
				continue
			}
			b.client += selfMs(c.id)
			if !o.body.Cached && !o.body.Shared {
				calls++
				callDur = append(callDur, float64(c.dur())/1e3)
			}
			for _, rt := range kids[c.id] {
				b.wire += selfMs(rt.id)
				rts++
				bytes += float64(rt.n)
				if rt.reused {
					reused++
				}
				for _, sv := range kids[rt.id] {
					b.server += selfMs(sv.id)
					servers++
					for _, e := range kids[sv.id] {
						b.engine += selfMs(e.id)
						engines++
					}
				}
			}
		}
		parts = append(parts, b)
		switch {
		case o.body.Cached:
			hitSelf = append(hitSelf, b.service*1e3)
		case !o.body.Shared:
			misses++
			missSelf = append(missSelf, b.service)
			miss.client += b.client
			miss.wire += b.wire
			miss.server += b.server
			miss.engine += b.engine
		}
	}
	m := map[string]float64{
		"loadgen.lag_max_ms":    lagMax,
		"loadgen.sent":          float64(len(outs)),
		"loadgen.failed":        float64(len(outs)) - ok,
		"trace.traced_requests": float64(len(traced)),
		"service.hit_ratio":     ratio(hits, ok),
		"service.shared_ratio":  ratio(shared, ok),
	}
	p50t, _ := percentile(traced, 0.5)
	p50u, _ := percentile(untraced, 0.5)
	m["trace.overhead_p50_ms"] = p50t - p50u
	m["service.hit_self_p50_us"], _ = percentile(hitSelf, 0.5)
	m["service.miss_self_ms"], _ = percentile(missSelf, 0.5)
	busy := 0.0
	for _, d := range callDur {
		busy += d
	}
	m["webdb.client.calls_per_miss"] = ratio(calls, misses)
	m["webdb.client.busy_ms_per_miss"] = ratio(busy/1e3, misses)
	m["webdb.client.call_p50_us"], _ = percentile(callDur, 0.5)
	m["webdb.client.self_us_per_call"] = ratio(miss.client*1e3, calls)
	m["webdb.wire_us_per_call"] = ratio(miss.wire*1e3, calls)
	m["webdb.server.self_us_per_call"] = ratio(miss.server*1e3, calls)
	m["engine.self_us_per_call"] = ratio(miss.engine*1e3, calls)
	m["webdb.client.conn_reuse_ratio"] = ratio(reused, rts)
	m["webdb.client.resp_bytes_per_call"] = ratio(bytes, rts)
	mid := medianBand(parts)
	m["path.front_ms"] = mid.front
	m["path.service_ms"] = mid.service
	m["path.client_ms"] = mid.client
	m["path.wire_ms"] = mid.wire
	m["path.server_ms"] = mid.server
	m["path.engine_ms"] = mid.engine
	m["path.total_ms"] = mid.latency
	hop := mid.client + mid.wire + mid.server + mid.engine
	m["path.source_hop_share"] = ratio(hop, mid.latency)
	return m
}

// medianBand averages the breakdowns of the traced requests whose latency
// lies within five percentile points of the traced median: where the time
// of a median request goes.
func medianBand(parts []breakdown) breakdown {
	sort.Slice(parts, func(i, j int) bool { return parts[i].latency < parts[j].latency })
	n := len(parts)
	lo, hi := n*45/100, (n*55+99)/100
	var b breakdown
	if hi <= lo {
		return b
	}
	for _, p := range parts[lo:hi] {
		b.latency += p.latency
		b.front += p.front
		b.service += p.service
		b.client += p.client
		b.wire += p.wire
		b.server += p.server
		b.engine += p.engine
	}
	k := float64(hi - lo)
	return breakdown{b.latency / k, b.front / k, b.service / k, b.client / k, b.wire / k, b.server / k, b.engine / k}
}

// counterMetrics adds the figures read from the program's public counters
// over the measured window.
func counterMetrics(m map[string]float64, before, after counters, r *result) {
	q := float64(after.engine.Queries - before.engine.Queries)
	m["engine.busy_us_per_call"] = ratio(float64(after.engine.BusyNanos-before.engine.BusyNanos)/1e3, q)
	m["engine.rows_scanned_per_call"] = ratio(float64(after.engine.TuplesScanned-before.engine.TuplesScanned), q)
	m["engine.tuples_returned_per_call"] = ratio(float64(after.engine.TuplesReturned-before.engine.TuplesReturned), q)
	m["engine.chunks_visited_per_call"] = ratio(float64(after.engine.ChunksVisited-before.engine.ChunksVisited), q)
	m["webdb.client.retries"] = float64(after.retries - before.retries)
	m["runtime.allocs_per_req"] = ratio(float64(after.mallocs-before.mallocs), float64(r.Attempted))
	m["runtime.gc_cycles"] = float64(after.gcs - before.gcs)
	m["runtime.gc_pause_ms"] = float64(after.gcPause-before.gcPause) / 1e6
}
