package main

import (
	"fmt"
	"time"
)

// endToEndMetrics are the metrics an untraced run prints.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s", "lower", "spawn to first timed request: readiness, priming, warm-up"},
	{"throughput_rps", "req/s", "higher", "completed requests ÷ wall time, per round"},
	{"p50_ms", "ms", "lower", "median client latency, request sent to last body byte, per round"},
	{"p99_ms", "ms", "lower", "99th percentile of the same samples, per window of ≥1,000"},
	{"cpu_ms_per_req", "ms", "lower", "daemon on-CPU time ÷ completed requests, per round"},
	{"peak_rss_mb", "MB", "lower", "peak resident set (VmRSS sampled every 10 ms) of a round, summed over daemons"},
}

// endToEnd reports the six end-to-end metrics of an untraced run:
// throughput, p50 and daemon CPU per request read per round, p99 per
// window of consecutive rounds holding at least p99Window samples,
// each reported as the better quartile over rounds or windows; peak
// memory as the median over rounds. The lifetime VmHWM is printed but
// not reported: one GC overshoot sets it for the whole run, so it
// moves far between runs.
func (pr *phaseRun) endToEnd(rep *report) error {
	if pr.timed.ok == 0 {
		return fmt.Errorf("no request of the timed phase succeeded; first failure: %v", pr.timed.firstErr)
	}
	rs, err := perRound(pr.rounds)
	if err != nil {
		return err
	}
	var cpus []float64
	for i, r := range pr.rounds {
		cpus = append(cpus, pr.cpus[i]*1000/float64(r.ok))
	}
	n := len(pr.timed.latency)
	note := func(what string, xs []float64) string {
		return fmt.Sprintf("better quartile of %d %s, median %.4g", len(xs), what, median(xs))
	}
	rep.set("setup_s", median(pr.setups), fmt.Sprintf("median of %d setups %.4g", len(pr.setups), pr.setups))
	rep.set("throughput_rps", betterQuartile(rs.rps, true), note("rounds", rs.rps)+fmt.Sprintf("; whole phase %.4g", float64(pr.timed.ok)/pr.timed.end.Sub(pr.timed.start).Seconds()))
	rep.set("p50_ms", betterQuartile(rs.p50, false), fmt.Sprintf("%s; n=%d", note("rounds", rs.p50), n))
	rep.set("p99_ms", betterQuartile(rs.p99, false), fmt.Sprintf("%s; n=%d, ≥%d beyond per window", note("windows", rs.p99), n, minBeyond))
	rep.set("cpu_ms_per_req", betterQuartile(cpus, false), note("rounds", cpus)+fmt.Sprintf("; whole phase %.3f s over %d requests", pr.cpu, pr.timed.ok))
	rep.set("peak_rss_mb", median(pr.rss), fmt.Sprintf("median of %d rounds; %d daemon(s), lifetime VmHWM %.4g", len(pr.rss), len(pr.deltas), pr.hwm))
	return nil
}

// roundFigures are a timed phase's throughput and p50 per round and
// p99 per window.
type roundFigures struct{ rps, p50, p99 []float64 }

// perRound reads each round's throughput and p50, and the p99 of each
// window: consecutive rounds merged until they hold p99Window samples,
// a short remainder joining the last window.
func perRound(rs []result) (roundFigures, error) {
	var f roundFigures
	var window []time.Duration
	rest := len(merge(rs).latency)
	for i, r := range rs {
		p50, err := quantileOf(r.latency, 0.50)
		if err != nil {
			return f, err
		}
		f.rps = append(f.rps, float64(r.ok)/r.end.Sub(r.start).Seconds())
		f.p50 = append(f.p50, p50)
		window = append(window, r.latency...)
		rest -= len(r.latency)
		if len(window) >= p99Window && rest >= p99Window || i == len(rs)-1 {
			p99, err := quantileOf(window, 0.99)
			if err != nil {
				return f, err
			}
			f.p99 = append(f.p99, p99)
			window = window[:0]
		}
	}
	return f, nil
}

// daemonLayers reports the per-layer metrics read from the untraced
// daemons' own /metrics, as deltas across the timed phase. Counters
// and the cache and runner numbers are summed over every daemon; the
// handler timing is the entry node's (node A on fleet-proxy), the one
// the client's round trip contains.
func (pr *phaseRun) daemonLayers(rep *report) {
	sum := sumDeltas(pr.deltas)
	ok := float64(pr.timed.ok)
	if ok == 0 {
		ok = 1
	}
	handler := pr.deltas[0].stats["server.latency"]
	rtt := meanOf(millis(pr.timed.latency))
	rep.set("server.handler_ms", handler.Mean()*1000, fmt.Sprintf("server.latency, n=%d", handler.Count))
	queue := sum.stats["server.queue.wait"]
	rep.set("server.queue_wait_ms", queue.Sum*1000/ok, fmt.Sprintf("server.queue.wait per request; %d of %d requests queued", queue.Count, pr.timed.ok))
	rep.set("server.transport_ms", rtt-handler.Mean()*1000, fmt.Sprintf("client mean %.4g ms − handler", rtt))
	for _, c := range [][2]string{
		{"server.coalesced", "server.coalesced"},
		{"server.proxied", "server.proxied"},
		{"server.proxy_errors", "server.proxy.errors"},
		{"server.shed", "server.shed"},
	} {
		n := sum.counters[c[1]]
		rep.set(c[0], float64(n)/ok, fmt.Sprintf("%d", n))
	}
	hits, misses := sum.counters["rescache.hits"], sum.counters["rescache.misses"]
	rep.set("rescache.hit_ratio", ratio(hits, hits+misses), fmt.Sprintf("%d hits, %d misses", hits, misses))
	rep.set("rescache.mem_hit_share", ratio(sum.counters["rescache.hits.mem"], hits), fmt.Sprintf("%d mem, %d fs, %d peer hits", sum.counters["rescache.hits.mem"], sum.counters["rescache.hits.fs"], sum.counters["rescache.hits.peer"]))
	rep.set("rescache.errors", float64(sum.counters["rescache.errors"]), "must stay 0")
	exp := sum.stats["runner.experiment.seconds"]
	rep.set("runner.experiment_ms", exp.Mean()*1000, fmt.Sprintf("computed runs n=%d", exp.Count))
	rep.set("runner.attempts_per_run", ratio(sum.counters["runner.attempts"], exp.Count), fmt.Sprintf("%d attempts", sum.counters["runner.attempts"]))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
