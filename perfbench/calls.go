package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"resilience/internal/cluster"
	"resilience/internal/experiments"
	"resilience/internal/faultinject"
	"resilience/internal/obs"
	"resilience/internal/rescache"
	"resilience/internal/rescache/memstore"
	"resilience/internal/runner"
)

// callRounds is how many times each call measurement repeats; the
// median round is reported.
const callRounds = 5

// timeCall runs f(i) for i in [0, n) callRounds times and returns the
// median time per call.
func timeCall(n int, f func(i int)) time.Duration {
	var rounds []float64
	for r := 0; r < callRounds; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		rounds = append(rounds, float64(time.Since(start))/float64(n))
	}
	return time.Duration(median(rounds))
}

// sink keeps measured results alive.
var sink any

// corpusLimit bounds the results the call measurements cycle through.
const corpusLimit = 256

// corpus is the workload's own results: key and canonical bytes, from
// the bodies the traced replay recorded (suite lines are canonical;
// indented run bodies compact back to canonical).
func corpus(p *plan, b *bodies) ([]key, [][]byte, error) {
	src := map[key][]byte{}
	for k, v := range b.compact {
		src[k] = v
	}
	if len(src) == 0 {
		for k, v := range b.indent {
			src[k] = v
		}
		for ref, v := range b.sampled {
			src[p.timed[ref[0]][ref[1]].keys[0]] = v
		}
	}
	var keys []key
	var canon [][]byte
	for _, k := range sortedKeys(src) {
		if len(keys) == corpusLimit {
			break
		}
		var c bytes.Buffer
		if err := json.Compact(&c, src[k]); err != nil {
			return nil, nil, fmt.Errorf("corpus %s: %w", k.id, err)
		}
		keys = append(keys, k)
		canon = append(canon, c.Bytes())
	}
	if len(keys) == 0 {
		return nil, nil, fmt.Errorf("no recorded results to measure calls on")
	}
	return keys, canon, nil
}

// callMetrics times the public functions a serve request calls, each on
// the workload's own inputs.
func callMetrics(rep *report, p *plan, b *bodies, urls []string) error {
	var timedKeys []rescache.Key
	for _, list := range p.timed {
		for _, r := range list {
			for _, k := range r.keys {
				if len(timedKeys) < 1024 {
					timedKeys = append(timedKeys, runner.CacheKey(k.options(), experiments.Experiment{ID: k.id}))
				}
			}
		}
	}
	d := timeCall(4*len(timedKeys), func(i int) { sink = timedKeys[i%len(timedKeys)].Digest() })
	rep.set("rescache.digest_us", us(d), fmt.Sprintf("Key.Digest over %d timed keys", len(timedKeys)))

	keys, canon, err := corpus(p, b)
	if err != nil {
		return err
	}
	m, err := memstore.New(len(keys), 0)
	if err != nil {
		return err
	}
	cache := rescache.New(m)
	var cacheKeys []rescache.Key
	for i, k := range keys {
		ck := runner.CacheKey(k.options(), experiments.Experiment{ID: k.id})
		if err := cache.PutBytes(ck, canon[i]); err != nil {
			return err
		}
		cacheKeys = append(cacheKeys, ck)
	}
	hits := 0
	d = timeCall(8*len(cacheKeys), func(i int) {
		if _, _, ok := cache.GetBytes(cacheKeys[i%len(cacheKeys)]); ok {
			hits++
		}
	})
	if hits != 8*len(cacheKeys)*callRounds {
		return fmt.Errorf("Cache.GetBytes missed %d of its own entries", 8*len(cacheKeys)*callRounds-hits)
	}
	rep.set("rescache.getbytes_us", us(d), fmt.Sprintf("memstore holding %d results", len(keys)))

	// Encode what the cold path encodes: Results fresh from runner.Run,
	// with their Go-typed cells (a decoded Result would hold only maps,
	// slices and float64s, which take the encoder's fast paths).
	results := make([]*experiments.Result, len(keys))
	for i, k := range keys {
		if results[i] = b.fresh[k]; results[i] == nil {
			out, err := inProcess(k)
			if err != nil {
				return err
			}
			results[i] = out.Result
		}
		if got, err := results[i].AppendCanonical(nil); err != nil || !bytes.Equal(maskWallClock(got), maskWallClock(canon[i])) {
			return fmt.Errorf("%s seed %d: in-process result does not encode to the served bytes (%v)", k.id, k.seed, err)
		}
	}
	buf := make([]byte, 0, 64<<10)
	d = timeCall(2*len(results), func(i int) { buf, _ = results[i%len(results)].AppendCanonical(buf[:0]) })
	rep.set("experiments.encode_us", us(d), fmt.Sprintf("Result.AppendCanonical over %d results fresh from runner.Run", len(results)))
	var out bytes.Buffer
	d = timeCall(2*len(canon), func(i int) { out.Reset(); experiments.RenderJSONBytes(&out, canon[i%len(canon)]) })
	rep.set("experiments.indent_us", us(d), fmt.Sprintf("RenderJSONBytes over %d results", len(canon)))

	ringURLs := urls
	if len(ringURLs) < 2 {
		// The fleet's shape: this node and its neighbour port.
		port, _ := strconv.Atoi(urls[0][strings.LastIndexByte(urls[0], ':')+1:])
		ringURLs = []string{urls[0], "http://127.0.0.1:" + strconv.Itoa(port+1)}
	}
	ring := cluster.New(ringURLs, 0)
	digests := make([]string, len(timedKeys))
	for i, k := range timedKeys {
		digests[i] = k.Digest()
	}
	d = timeCall(8*len(digests), func(i int) { sink = ring.Owner(digests[i%len(digests)]) })
	rep.set("cluster.owner_us", us(d), fmt.Sprintf("Ring.Owner over %d digests, %d members", len(digests), len(ringURLs)))

	o := obs.New()
	o.Trace.SetLimit(spanLimit)
	for i := 0; i < spanLimit; i++ {
		o.Span("fill", "request").End()
	}
	d = timeCall(500, func(int) { o.Span("POST /v1/run/e01", "request").End() })
	rep.set("obs.span_us", us(d), fmt.Sprintf("tracer holding its %d-span limit", spanLimit))

	const incs = 200000
	d = timeCall(1, func(int) {
		var wg sync.WaitGroup
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < incs; i++ {
					o.Counter("server.requests").Inc()
				}
			}()
		}
		wg.Wait()
	})
	rep.set("obs.counter_inc_ns", float64(d)/incs, fmt.Sprintf("%d goroutines × %d Inc", clients, incs))

	d = timeCall(500, func(int) {
		pl, err := faultinject.Parse([]byte(faultPlan))
		if err == nil {
			sink = pl.Hash()
		}
	})
	rep.set("faultinject.parse_us", us(d), "Parse + Plan.Hash of fleet-proxy's plan")
	return nil
}

// sortedKeys returns a map's keys in order.
func sortedKeys(m map[key][]byte) []key {
	out := make([]key, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].id != out[j].id {
			return out[i].id < out[j].id
		}
		if out[i].seed != out[j].seed {
			return out[i].seed < out[j].seed
		}
		return !out[i].plan && out[j].plan
	})
	return out
}
