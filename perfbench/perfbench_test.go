package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"resilience/internal/cluster"
	"resilience/internal/obs"
)

var fleetURLs = []string{"http://127.0.0.1:39400", "http://127.0.0.1:39401"}

func genAll(t *testing.T, seed uint64) map[string]*plan {
	t.Helper()
	out := map[string]*plan{}
	for _, w := range workloads {
		out[w.name] = w.gen(seed, 2400, fleetURLs)
	}
	return out
}

// The same seed must produce identical request lists, and another seed
// different ones.
func TestSameSeedSameLists(t *testing.T) {
	a, b, c := genAll(t, 7), genAll(t, 7), genAll(t, 8)
	for name := range a {
		if !reflect.DeepEqual(a[name], b[name]) {
			t.Errorf("%s: seed 7 generated two different plans", name)
		}
		if reflect.DeepEqual(a[name].timed, c[name].timed) {
			t.Errorf("%s: seeds 7 and 8 generated the same timed lists", name)
		}
	}
}

func keysOf(lists ...[]request) map[key]bool {
	out := map[key]bool{}
	for _, l := range lists {
		for _, r := range l {
			for _, k := range r.keys {
				out[k] = true
			}
		}
	}
	return out
}

// Warm-up, timed and check choices come from disjoint streams; the
// keys fleet-proxy times are never ones setup sent (its repeats are
// checked in TestFleetKeysOnNodeB); warm-serve times only keys its
// priming computed; fleet-proxy's check sample is first touches, clean
// and faulted, and depends on the seed.
func TestSeedsDisjoint(t *testing.T) {
	tags := map[uint64]string{}
	for _, s := range []string{"hot", "warmup", "timed", "check"} {
		if prev, dup := tags[tag(s)]; dup {
			t.Fatalf("streams %s and %s share a seed", prev, s)
		}
		tags[tag(s)] = s
	}
	for name, p := range genAll(t, 3) {
		var setup []request
		for _, phase := range p.prime {
			setup = append(setup, phase...)
		}
		setup = append(setup, p.warmup...)
		setupKeys, timedKeys := keysOf(setup), keysOf(p.timed[0], p.timed[1])
		for k := range timedKeys {
			if name == "warm-serve" {
				if !keysOf(p.prime...)[k] {
					t.Fatalf("warm-serve times %v, which priming never computed", k)
				}
				continue
			}
			if setupKeys[k] {
				t.Fatalf("%s: timed key %v was already sent during setup", name, k)
			}
			if k.seed>>56 != spaceTimed {
				t.Fatalf("%s: timed key %v outside the timed seed space", name, k)
			}
		}
	}
	fleet := genFleet(3, 2400, fleetURLs)
	faulted := 0
	for _, ref := range fleet.sample {
		r := fleet.timed[ref[0]][ref[1]]
		if r.touch != 1 {
			t.Fatalf("sampled request %s %s is not a first touch", r.path, r.body)
		}
		if r.keys[0].plan {
			faulted++
		}
	}
	if len(fleet.sample) != fleetSampleClean+fleetSampleFault || faulted != fleetSampleFault {
		t.Fatalf("fleet-proxy samples %d requests, %d faulted", len(fleet.sample), faulted)
	}
	if reseeded := genFleet(4, 2400, fleetURLs); reflect.DeepEqual(fleet.sample, reseeded.sample) {
		t.Fatal("the check sample does not depend on the seed")
	}
}

// Fleet keys all land on node B, whichever order a node lists the ring
// members in (each daemon builds its ring from -peers plus itself).
func TestFleetKeysOnNodeB(t *testing.T) {
	p := genFleet(5, 2400, fleetURLs)
	rings := []*cluster.Ring{cluster.New(fleetURLs, 0), cluster.New([]string{fleetURLs[1], fleetURLs[0]}, 0)}
	var all []request
	for _, phase := range p.prime {
		all = append(all, phase...)
	}
	all = append(all, p.timed[0]...)
	all = append(all, p.timed[1]...)
	for _, r := range all {
		for _, ring := range rings {
			if got := ring.Owner(digest(r.keys[0])); got != fleetURLs[1] {
				t.Fatalf("%v is owned by %s, want node B", r.keys[0], got)
			}
		}
		if r.node != 0 {
			t.Fatalf("fleet request %s %s goes to node %d, want A", r.path, r.body, r.node)
		}
	}
	// A second touch directly follows its key's first, on one client,
	// for one key in fifteen; one key in ten, never one touched twice,
	// carries the fault plan.
	keys, seconds, planned := 0, 0, 0
	for c, l := range p.timed {
		for i := 0; i < len(l); i++ {
			if l[i].touch == 1 {
				keys++
				if l[i].keys[0].plan {
					planned++
					if i+1 < len(l) && l[i+1].touch == 2 {
						t.Fatalf("client %d: faulted key %v is touched twice", c, l[i].keys[0])
					}
				}
				continue
			}
			seconds++
			if i == 0 || l[i].touch != 2 || l[i-1].touch != 1 || !reflect.DeepEqual(l[i].keys, l[i-1].keys) {
				t.Fatalf("client %d: request %d (touch %d) does not follow its key's first touch", c, i, l[i].touch)
			}
		}
	}
	if want := keys / fleetGroup * fleetSeconds; seconds < want || seconds > want+fleetSeconds {
		t.Fatalf("%d second touches for %d keys, want %d per %d keys", seconds, keys, fleetSeconds, fleetGroup)
	}
	if want := keys / fleetFaultEvery; planned < want-1 || planned > want+1 {
		t.Fatalf("%d faulted keys of %d, want one in %d", planned, keys, fleetFaultEvery)
	}
	// The timed phase never exceeds the count asked for, so it splits
	// into whole rounds.
	for n := 2000; n < 2032; n++ {
		q := genFleet(5, n, fleetURLs)
		if got := len(q.timed[0]) + len(q.timed[1]); got > n || got < n-1 {
			t.Fatalf("genFleet(n=%d) lists %d timed requests", n, got)
		}
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, c := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{19, 0.50, false, 0},
		{20, 0.50, true, 10},
		{0, 0.50, false, 0},
	} {
		got, ok := percentile(seq(c.n), c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(n=%d, q=%g) = %g, %t; want %g, %t", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if _, err := quantileOf(make([]time.Duration, 999), 0.99); err == nil || !strings.Contains(err.Error(), "999") {
		t.Errorf("quantileOf on 999 samples: %v, want an error naming the sample count", err)
	}
}

// The better quartile is the upper one when higher is better and the
// lower one otherwise, by nearest rank, and leaves its input alone.
func TestBetterQuartile(t *testing.T) {
	xs := []float64{8, 1, 7, 2, 6, 3, 5, 4}
	if got := betterQuartile(xs, true); got != 6 {
		t.Errorf("upper quartile of 1..8 = %g, want 6", got)
	}
	if got := betterQuartile(xs, false); got != 2 {
		t.Errorf("lower quartile of 1..8 = %g, want 2", got)
	}
	if got := betterQuartile([]float64{3}, false); got != 3 {
		t.Errorf("quartile of one value = %g, want 3", got)
	}
	if xs[0] != 8 {
		t.Error("betterQuartile reordered its input")
	}
}

// Every round gives a throughput and a p50; p99 windows merge
// consecutive rounds until each holds p99Window samples, a short
// remainder joining the last window.
func TestPerRoundWindows(t *testing.T) {
	round := func(n int, ms time.Duration) result {
		r := result{ok: n, start: time.Unix(0, 0), end: time.Unix(1, 0)}
		for i := 0; i < n; i++ {
			r.latency = append(r.latency, ms*time.Millisecond)
		}
		return r
	}
	var rs []result
	for i := 0; i < 9; i++ {
		rs = append(rs, round(300, time.Duration(i+1)))
	}
	f, err := perRound(rs)
	if err != nil {
		t.Fatal(err)
	}
	// 2,700 samples: windows of rounds 1–4 (1,200) and 5–9 (1,500);
	// rounds 5–8 alone would leave a 300-sample remainder.
	if len(f.rps) != 9 || len(f.p50) != 9 || f.p50[8] != 9 || f.rps[0] != 300 {
		t.Fatalf("per-round figures %v %v", f.rps, f.p50)
	}
	if want := []float64{4, 9}; !reflect.DeepEqual(f.p99, want) {
		t.Fatalf("p99 per window %v, want %v", f.p99, want)
	}
	if _, err := perRound(rs[:3]); err == nil {
		t.Fatal("900 samples gave a p99")
	}
}

// Scrape-pair deltas: counters subtract, timings and histograms
// subtract sum and count, and nodes add.
func TestMetricsDelta(t *testing.T) {
	parse := func(doc string) *obs.Document {
		var d obs.Document
		if err := json.Unmarshal([]byte(doc), &d); err != nil {
			t.Fatal(err)
		}
		return &d
	}
	before := parse(`{"counters":{"server.proxied":3,"rescache.hits":10},
		"timings":{"server.latency":{"count":4,"sum":0.5,"p50":9}},
		"histograms":{"runner.experiment.seconds":{"count":2,"sum":0.25}},
		"spans":[{"id":1},{"id":2}]}`)
	after := parse(`{"counters":{"server.proxied":7,"rescache.hits":10,"rescache.errors":1},
		"timings":{"server.latency":{"count":14,"sum":2.5}},
		"histograms":{"runner.experiment.seconds":{"count":6,"sum":1.25}},
		"spans":[{"id":1},{"id":2},{"id":3}]}`)
	if len(after.Spans) != 3 {
		t.Fatalf("span count %d, want 3", len(after.Spans))
	}
	d := diff(before, after)
	if d.counters["server.proxied"] != 4 || d.counters["rescache.hits"] != 0 || d.counters["rescache.errors"] != 1 {
		t.Fatalf("counter deltas %v", d.counters)
	}
	if got := d.stats["server.latency"]; got != (obs.TimingSnapshot{Count: 10, Sum: 2}) || got.Mean() != 0.2 {
		t.Fatalf("timing delta %+v", got)
	}
	if got := d.stats["runner.experiment.seconds"]; got != (obs.TimingSnapshot{Count: 4, Sum: 1}) {
		t.Fatalf("histogram delta %+v", got)
	}
	s := sumDeltas([]delta{d, d})
	if s.counters["server.proxied"] != 8 || s.stats["server.latency"] != (obs.TimingSnapshot{Count: 20, Sum: 4}) {
		t.Fatalf("summed deltas %v %v", s.counters, s.stats)
	}
}

// A pass is cut every size completions over all clients, after runs
// once per round, and unsent requests count as failed, not sent.
func TestTallyCuts(t *testing.T) {
	calls := 0
	tl := &tally{size: 4, after: func() { calls++ }}
	for i := 0; i < 10; i++ {
		var err error
		if i == 5 {
			err = errors.New("boom")
		}
		tl.add(time.Duration(i)*time.Millisecond, err)
	}
	tl.unsent(3, errors.New("cut"))
	rs := tl.close()
	if len(rs) != 3 || calls != 3 {
		t.Fatalf("%d rounds, after ran %d times; want 3 and 3", len(rs), calls)
	}
	for i, want := range [][3]int{{4, 4, 0}, {4, 3, 1}, {2, 2, 3}} {
		if got := [3]int{rs[i].sent, rs[i].ok, rs[i].failed}; got != want {
			t.Errorf("round %d: sent/ok/failed %v, want %v", i, got, want)
		}
		if i > 0 && rs[i].start != rs[i-1].end {
			t.Errorf("round %d starts at %v, the previous one ended at %v", i, rs[i].start, rs[i-1].end)
		}
	}
	if m := merge(rs); m.sent != 10 || m.failed != 4 || m.firstErr == nil || m.firstErr.Error() != "boom" {
		t.Fatalf("merged %+v", m)
	}
	if rs := (&tally{}).close(); len(rs) != 1 || rs[0].sent != 0 {
		t.Fatalf("an empty pass gave %v", rs)
	}
}

// Self time is a span minus the union of its children.
func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{kind: "handler", start: 0, end: 100 * ms, parent: -1},
		{kind: "get", start: 10 * ms, end: 20 * ms, parent: 0},
		{kind: "compute", start: 30 * ms, end: 80 * ms, parent: 0},
		{kind: "stage", start: 40 * ms, end: 60 * ms, parent: 2},
		{kind: "get", start: 15 * ms, end: 25 * ms, parent: 0}, // overlaps its sibling
	}
	self := selfTimes(spans)
	want := []time.Duration{35 * ms, 10 * ms, 30 * ms, 20 * ms, 10 * ms}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
}

// E04's wall-clock scalars are masked and nothing else is.
func TestMaskWallClock(t *testing.T) {
	body := "{\n  \"scalars\": [\n    {\n      \"name\": \"synthesisTime/chain/50\",\n      \"value\": \"4.356µs\"\n    },\n    {\n      \"name\": \"worst\",\n      \"value\": \"7\"\n    }\n  ]\n}\n"
	got := string(maskWallClock([]byte(body)))
	if strings.Contains(got, "4.356µs") || !strings.Contains(got, `"value": "<wall-clock>"`) || !strings.Contains(got, `"value": "7"`) {
		t.Fatalf("masked body:\n%s", got)
	}
	compact := `{"scalars":[{"name":"synthesisTime/chain/50","value":"4.356µs"},{"name":"worst","value":"7"}]}`
	if got := string(maskWallClock([]byte(compact))); got != `{"scalars":[{"name":"synthesisTime/chain/50","value":"<wall-clock>"},{"name":"worst","value":"7"}]}` {
		t.Fatalf("masked compact body: %s", got)
	}
}

// BENCHMARK.json names exactly the workloads and metrics the harness
// prints, with the same units and directions.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the harness", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit, Better string }
		want []metricSpec
	}{{doc.EndToEnd, endToEndMetrics}, {doc.PerLayer, metricSpecs}} {
		if len(c.json) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics where the harness prints %d", len(c.json), len(c.want))
		}
		for i, m := range c.json {
			if w := c.want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("metric %d: %+v in BENCHMARK.json, %+v in the harness", i, m, w)
			}
		}
	}
}
