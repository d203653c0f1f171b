package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// metricSpec is one reported metric: its unit, which direction is
// better, and what it means — for a per-layer metric, the end-to-end
// metric and workload it should move.
type metricSpec struct {
	name, unit, better, moves string
}

// metricSpecs is every per-layer metric a -trace 1 run prints, in
// report order. Sources: the untraced daemons' /metrics deltas across
// the timed phase (daemon), the traced in-process replay (traced), or
// the timed cost of one public function on the workload's own inputs
// (call). A metric whose layer the workload never crosses reads 0.
var metricSpecs = append(append([]metricSpec{
	{"server.handler_ms", "ms", "lower", "p50_ms, throughput_rps @ warm-serve"},
	{"server.queue_wait_ms", "ms", "lower", "p99_ms @ fleet-proxy; throughput_rps @ warm-serve"},
	{"server.transport_ms", "ms", "lower", "p50_ms @ warm-serve"},
	{"server.self_ms", "ms", "lower", "cpu_ms_per_req @ warm-serve"},
	{"server.suite_ms_per_id", "ms", "lower", "throughput_rps @ warm-serve"},
	{"server.proxy_ms", "ms", "lower", "p50_ms @ fleet-proxy"},
	{"server.coalesced", "1/req", "higher", "failure share"},
	{"server.proxied", "1/req", "lower", "equals the first-touch share @ fleet-proxy"},
	{"server.proxy_errors", "1/req", "lower", "failure share"},
	{"server.shed", "1/req", "lower", "failure share"},
	{"rescache.get_us.mem", "us", "lower", "cpu_ms_per_req @ warm-serve"},
	{"rescache.get_us.fs", "us", "lower", "cpu_ms_per_req @ warm-serve"},
	{"rescache.get_us.peer", "us", "lower", "p50_ms @ fleet-proxy"},
	{"rescache.put_us.mem", "us", "lower", "cpu_ms_per_req, p50_ms @ fleet-proxy"},
	{"rescache.put_us.fs", "us", "lower", "cpu_ms_per_req, p50_ms @ fleet-proxy"},
	{"rescache.hit_ratio", "ratio", "higher", "throughput_rps @ warm-serve"},
	{"rescache.mem_hit_share", "ratio", "higher", "throughput_rps @ warm-serve"},
	{"rescache.digest_us", "us", "lower", "cpu_ms_per_req @ warm-serve"},
	{"rescache.getbytes_us", "us", "lower", "cpu_ms_per_req @ warm-serve"},
	{"rescache.errors", "count", "lower", "must stay 0 on every workload"},
	{"runner.experiment_ms", "ms", "lower", "p50_ms, throughput_rps @ fleet-proxy"},
	{"runner.attempts_per_run", "ratio", "lower", "throughput_rps @ fleet-proxy"},
}, computeMetrics()...), []metricSpec{
	{"experiments.encode_us", "us", "lower", "cpu_ms_per_req @ fleet-proxy"},
	{"experiments.indent_us", "us", "lower", "cpu_ms_per_req @ warm-serve"},
	{"cluster.owner_us", "us", "lower", "cpu_ms_per_req @ fleet-proxy"},
	{"obs.span_us", "us", "lower", "cpu_ms_per_req, throughput_rps @ warm-serve"},
	{"obs.counter_inc_ns", "ns", "lower", "cpu_ms_per_req @ warm-serve"},
	{"faultinject.parse_us", "us", "lower", "cpu_ms_per_req @ fleet-proxy"},
	{"trace.throughput_rps", "req/s", "higher", "throughput_rps; the difference is tracing plus in-process hosting"},
	{"trace.p50_ms", "ms", "lower", "p50_ms; the difference is tracing plus in-process hosting"},
	{"trace.mean_ms", "ms", "lower", "mean client latency of the traced replay"},
	{"trace.layer_sum_ms", "ms", "lower", "sum of layer self times per request, against trace.mean_ms"},
	{"trace.gap_ms", "ms", "lower", "trace.mean_ms minus trace.layer_sum_ms: latency no layer span covers"},
}...)

func computeMetrics() []metricSpec {
	var out []metricSpec
	for _, id := range allIDs() {
		out = append(out, metricSpec{"experiments.compute_ms." + id, "ms", "lower", "p99_ms, throughput_rps @ fleet-proxy"})
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// meanStat accumulates a mean.
type meanStat struct {
	sum float64
	n   int
}

func (m *meanStat) add(v float64) { m.sum += v; m.n++ }

func (m meanStat) mean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

func (m meanStat) note() string { return fmt.Sprintf("n=%d", m.n) }

// layers analyses the traced replay, runs the call measurements and
// reports every traced and call metric.
func (t *traced) layers(rep *report, d *phaseRun, opt options, p *plan, urls []string) error {
	top := link(t.spans, p)
	self := selfTimes(t.spans)
	path := filepath.Join(opt.out, "spans", opt.workload.name+".tsv")
	if err := writeSpans(path, t.spans, p); err != nil {
		return err
	}

	var handlerSelf, layerSum, suitePerID, proxy meanStat
	bySelf := map[string]float64{}
	perReq := make([]float64, len(top))
	for i, s := range t.spans {
		if s.req >= 0 {
			perReq[s.req] += ms(self[i])
			bySelf[layerOf(s.kind)] += ms(self[i])
		}
	}
	traced := 0
	for n, i := range top {
		if i < 0 {
			continue
		}
		traced++
		handlerSelf.add(ms(self[i]))
		layerSum.add(perReq[n])
		c, j := unflat(p, n)
		if r := p.timed[c][j]; r.suite {
			suitePerID.add(ms(t.spans[i].dur()) / float64(len(r.keys)))
		}
	}
	peerByReq := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.req >= 0 && s.kind == "get" && s.name == "peer" && s.node == t.spans[top[s.req]].node {
			peerByReq[s.req] += s.dur()
		}
	}
	for _, s := range t.spans {
		if s.fwd && s.req >= 0 {
			a := t.spans[top[s.req]]
			proxy.add(ms(a.dur() - s.dur() - peerByReq[s.req]))
		}
	}
	tiers := map[string]*meanStat{}
	compute := map[string]*meanStat{}
	for _, s := range t.spans {
		var m map[string]*meanStat
		var k string
		var v float64
		switch s.kind {
		case "get", "put":
			m, k, v = tiers, s.kind+"."+s.name, us(s.dur())
		case "compute":
			m, k, v = compute, s.name, ms(s.dur())
		default:
			continue
		}
		if m[k] == nil {
			m[k] = &meanStat{}
		}
		m[k].add(v)
	}
	get := func(m map[string]*meanStat, k string) meanStat {
		if m[k] == nil {
			return meanStat{}
		}
		return *m[k]
	}

	fmt.Fprintf(rep.w, "per-layer metrics from the traced replay (%d spans, %d of %d timed requests linked; spans in %s):\n",
		len(t.spans), traced, len(top), filepath.Clean(path))
	rep.set("server.self_ms", handlerSelf.mean(), "handler − its tier, compute and proxy children; "+handlerSelf.note())
	rep.set("server.suite_ms_per_id", suitePerID.mean(), "/v1/suite handler ÷ ids; "+suitePerID.note())
	rep.set("server.proxy_ms", proxy.mean(), "A's handler − B's forwarded run − A's peer tier; "+proxy.note())
	for _, k := range []string{"get.mem", "get.fs", "get.peer", "put.mem", "put.fs"} {
		m := get(tiers, k)
		rep.set("rescache."+k[:3]+"_us."+k[4:], m.mean(), m.note())
	}
	for _, id := range allIDs() {
		m := get(compute, id)
		rep.set("experiments.compute_ms."+id, m.mean(), m.note())
	}
	// Throughput and p50 are read like the untraced run's, so the two
	// differ only by tracing and in-process hosting.
	tr, err := perRound(t.rounds)
	if err != nil {
		return err
	}
	ur, err := perRound(d.rounds)
	if err != nil {
		return err
	}
	lat := millis(t.timed.latency)
	mean := meanOf(lat)
	rep.set("trace.throughput_rps", betterQuartile(tr.rps, true), fmt.Sprintf("untraced %.6g", betterQuartile(ur.rps, true)))
	rep.set("trace.p50_ms", betterQuartile(tr.p50, false), fmt.Sprintf("untraced %.6g", betterQuartile(ur.p50, false)))
	rep.set("trace.mean_ms", mean, fmt.Sprintf("n=%d", len(lat)))
	rep.set("trace.layer_sum_ms", layerSum.mean(), fmt.Sprintf("per request: server %.4g + rescache %.4g + experiments %.4g",
		bySelf["server"]/float64(max(traced, 1)), bySelf["rescache"]/float64(max(traced, 1)), bySelf["experiments"]/float64(max(traced, 1))))
	rep.set("trace.gap_ms", mean-layerSum.mean(), fmt.Sprintf("%.1f%% of the mean latency", 100*(mean-layerSum.mean())/mean))

	fmt.Fprintln(rep.w, "per-layer metrics from calls on the workload's own inputs:")
	return callMetrics(rep, p, t.bodies, urls)
}

func layerOf(kind string) string {
	switch kind {
	case "handler":
		return "server"
	case "get", "put":
		return "rescache"
	}
	return "experiments"
}
