package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"resilience/internal/cluster"
	"resilience/internal/engine"
	"resilience/internal/experiments"
	"resilience/internal/obs"
	"resilience/internal/rescache"
	"resilience/internal/rescache/fsstore"
	"resilience/internal/rescache/memstore"
	"resilience/internal/rescache/peerstore"
	"resilience/internal/rng"
	"resilience/internal/server"
)

// serveMemEntries is serve's default -cache-mem-entries, which the
// in-process nodes of the workloads that keep the default use too.
const serveMemEntries = 1024

// span is one traced layer crossing. Spans are recorded from the
// benchmark's own wrappers around public seams — the HTTP handler,
// every rescache.Store tier, every registry entry's Run or stages —
// and linked to their request afterwards, by key and time containment.
type span struct {
	kind   string // handler, get, put, compute, stage
	name   string // handler: URL path; get/put: tier; compute: id; stage: id/stage
	node   int
	start  time.Duration // since the recorder's epoch
	end    time.Duration
	client int // handler of a timed request: its client and index; -1 otherwise
	index  int
	digest string // get/put spans and /v1/cache handlers
	id     string // compute, stage and forwarded-run spans
	seed   uint64 // compute/stage: derived seed; forwarded run: derived from its root seed
	fwd    bool   // handler of a run another node forwarded
	parent int    // index into the span list, -1 for a root; set by link
	req    int    // flat index of the timed request the span belongs to, -1 if none
}

func (s *span) dur() time.Duration { return s.end - s.start }

// recorder keeps spans in memory while on; they are written once, at
// the end of the run.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// extend moves span i's end to at (a staged computation ends with its
// last stage).
func (r *recorder) extend(i int, at time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if at > r.spans[i].end {
		r.spans[i].end = at
	}
}

// handler wraps a node's root handler with a span per request.
func (r *recorder) handler(node int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			next.ServeHTTP(w, req)
			return
		}
		s := span{kind: "handler", name: req.URL.Path, node: node, client: -1, index: -1}
		if v := req.Header.Get(reqHeader); v != "" {
			fmt.Sscanf(v, "%d/%d", &s.client, &s.index)
		}
		if d, ok := strings.CutPrefix(req.URL.Path, "/v1/cache/"); ok {
			s.digest = d
		}
		if req.Header.Get("X-Resilience-Forwarded") != "" {
			// The forwarded document names the run; reading it before
			// the span starts keeps the handler's own read inside it.
			body, _ := io.ReadAll(req.Body)
			req.Body = io.NopCloser(bytes.NewReader(body))
			var doc struct {
				Seed uint64 `json:"seed"`
			}
			json.Unmarshal(body, &doc)
			s.fwd, s.id = true, strings.TrimPrefix(req.URL.Path, "/v1/run/")
			s.seed = rng.Derive(doc.Seed, s.id)
		}
		s.start = r.now()
		next.ServeHTTP(w, req)
		s.end = r.now()
		r.add(s)
	})
}

// tracedStore wraps one cache tier with a span per Get and Put.
type tracedStore struct {
	rescache.Store
	rec  *recorder
	node int
	tier string
}

func (t *tracedStore) Get(digest string) ([]byte, string, error) {
	if !t.rec.on.Load() {
		return t.Store.Get(digest)
	}
	start := t.rec.now()
	data, tier, err := t.Store.Get(digest)
	t.rec.add(span{kind: "get", name: t.tier, node: t.node, start: start, end: t.rec.now(), digest: digest, client: -1, index: -1})
	return data, tier, err
}

func (t *tracedStore) Put(digest string, data []byte) error {
	if !t.rec.on.Load() {
		return t.Store.Put(digest, data)
	}
	start := t.rec.now()
	err := t.Store.Put(digest, data)
	t.rec.add(span{kind: "put", name: t.tier, node: t.node, start: start, end: t.rec.now(), digest: digest, client: -1, index: -1})
	return err
}

// Check, SetObserver and String forward the optional interfaces the
// cache and the tiered store look for, so wrapping changes nothing.
func (t *tracedStore) Check() error {
	if c, ok := t.Store.(rescache.Checker); ok {
		return c.Check()
	}
	return nil
}

func (t *tracedStore) SetObserver(o *obs.Observer) {
	if ob, ok := t.Store.(rescache.Observable); ok {
		ob.SetObserver(o)
	}
}

func (t *tracedStore) String() string {
	if s, ok := t.Store.(fmt.Stringer); ok {
		return s.String()
	}
	return t.tier
}

// registry wraps every registry entry's Run or stages with compute
// spans (and a span per stage). IDs are unchanged, so cache keys and
// response bytes are too.
func (r *recorder) registry(node int) []experiments.Experiment {
	var out []experiments.Experiment
	for _, e := range experiments.All() {
		id := e.ID
		if run := e.Run; run != nil {
			e.Run = func(rec *experiments.Recorder, cfg experiments.Config) error {
				if !r.on.Load() {
					return run(rec, cfg)
				}
				start := r.now()
				err := run(rec, cfg)
				r.add(span{kind: "compute", name: id, node: node, start: start, end: r.now(), id: id, seed: cfg.Seed, client: -1, index: -1})
				return err
			}
		} else {
			build := e.Stages
			e.Stages = func(rec *experiments.Recorder, cfg experiments.Config) []engine.Stage {
				if !r.on.Load() {
					return build(rec, cfg)
				}
				start := r.now()
				stages := append([]engine.Stage(nil), build(rec, cfg)...)
				c := r.add(span{kind: "compute", name: id, node: node, start: start, end: r.now(), id: id, seed: cfg.Seed, client: -1, index: -1})
				for i := range stages {
					fn, name := stages[i].Fn, id+"/"+stages[i].Name
					if fn == nil {
						continue
					}
					stages[i].Fn = func(src *rng.Source) error {
						s := r.now()
						err := fn(src)
						end := r.now()
						r.add(span{kind: "stage", name: name, node: node, start: s, end: end, id: id, seed: cfg.Seed, client: -1, index: -1})
						r.extend(c, end)
						return err
					}
				}
				return stages
			}
		}
		out = append(out, e)
	}
	return out
}

// node is one in-process serve node.
type node struct {
	hs   *http.Server
	done chan error
}

// startNodes builds one node per URL from the public constructors
// serve uses, with the daemons' settings: memstore over fsstore as the
// local tiers, peerstore on the read path only, the cluster ring,
// rescache.New over the tiered store, and server.New mounted on the
// benchmark's own http.Server through Server.Handler.
func startNodes(rec *recorder, urls []string, dir string, memEntries int) ([]*node, error) {
	if memEntries == 0 {
		memEntries = serveMemEntries
	}
	var nodes []*node
	for i, self := range urls {
		observer := obs.New()
		observer.Trace.SetLimit(spanLimit)
		m, err := memstore.New(memEntries, 0)
		if err != nil {
			stopNodes(nodes)
			return nil, err
		}
		f, err := fsstore.Open(filepath.Join(dir, fmt.Sprintf("node%d", i), "cache"))
		if err != nil {
			stopNodes(nodes)
			return nil, err
		}
		mem := &tracedStore{Store: m, rec: rec, node: i, tier: "mem"}
		fs := &tracedStore{Store: f, rec: rec, node: i, tier: "fs"}
		var ring *cluster.Ring
		var peer rescache.Store
		if len(urls) > 1 {
			ring = cluster.New(urls, 0)
			self := self
			peer = &tracedStore{Store: peerstore.New(func(digest string) (string, bool) {
				o := ring.Owner(digest)
				return o, o != "" && o != self
			}, nil), rec: rec, node: i, tier: "peer"}
		}
		cache := rescache.New(rescache.Tiered(mem, fs, peer))
		cache.SetObserver(observer)
		srv := server.New(server.Config{
			Registry: rec.registry(i),
			Cache:    cache,
			Local:    rescache.Tiered(mem, fs),
			Ring:     ring,
			Self:     self,
			Obs:      observer,
		})
		ln, err := net.Listen("tcp", strings.TrimPrefix(self, "http://"))
		if err != nil {
			stopNodes(nodes)
			return nil, err
		}
		n := &node{hs: &http.Server{Handler: rec.handler(i, srv.Handler()), ReadHeaderTimeout: 10 * time.Second}, done: make(chan error, 1)}
		go func() { n.done <- n.hs.Serve(ln) }()
		nodes = append(nodes, n)
	}
	return nodes, nil
}

func stopNodes(nodes []*node) error {
	var errs []error
	for _, n := range nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		errs = append(errs, n.hs.Shutdown(ctx))
		cancel()
		if err := <-n.done; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// traced is the outcome of the traced replay.
type traced struct {
	rounds   []result
	timed    result // the rounds merged
	checkErr error
	spans    []span
	bodies   *bodies
}

// tracedRun replays the workload's exact request lists — priming,
// warm-up and timed — against in-process nodes on the daemons' URLs,
// recording spans during the timed phase.
func tracedRun(ctx context.Context, opt options, urls []string, p *plan) (*traced, error) {
	w := opt.workload
	rec := &recorder{epoch: time.Now()}
	dir := filepath.Join(opt.workdir, "traced")
	nodes, err := startNodes(rec, urls, dir, w.memEntries)
	if err != nil {
		return nil, err
	}
	t := &traced{bodies: newBodies(p)}
	cs := newClients()
	err = prepare(ctx, cs, urls, p, t.bodies, w.name)
	var before, after []*obs.Document
	if err == nil {
		before, err = scrapeAll(urls)
	}
	if err == nil {
		tctx, cancel := context.WithTimeout(ctx, phaseLimit)
		rec.on.Store(true)
		t.rounds = drive(tctx, cs, urls, p.timed, [clients]int{}, true, t.bodies.servingCheck(w.name, true), w.roundSize, nil)
		rec.on.Store(false)
		cancel()
		t.timed = merge(t.rounds)
		after, err = scrapeAll(urls)
	}
	closeClients(cs)
	err = errors.Join(err, stopNodes(nodes))
	os.RemoveAll(dir)
	if err != nil {
		return nil, err
	}
	var deltas []delta
	for i := range urls {
		deltas = append(deltas, diff(before[i], after[i]))
	}
	t.checkErr = checkOutputs(w.name, p, t.bodies, deltas)
	t.spans = rec.spans
	return t, nil
}

// writeSpans writes the linked spans once, as tab-separated lines:
// index, parent, request (client/index), node, kind, name, start and
// end in microseconds since the recorder's epoch.
func writeSpans(path string, spans []span, p *plan) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "span\tparent\trequest\tnode\tkind\tname\tstart_us\tend_us")
	for i, s := range spans {
		req := "-"
		if s.req >= 0 {
			c, j := unflat(p, s.req)
			req = fmt.Sprintf("%d/%d", c, j)
		}
		fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%s\t%s\t%.3f\t%.3f\n", i, s.parent, req, s.node, s.kind, s.name,
			float64(s.start)/1e3, float64(s.end)/1e3)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// flat numbers the timed requests client by client.
func flat(p *plan, client, index int) int {
	n := index
	for c := 0; c < client; c++ {
		n += len(p.timed[c])
	}
	return n
}

func unflat(p *plan, n int) (int, int) {
	for c := range p.timed {
		if n < len(p.timed[c]) {
			return c, n
		}
		n -= len(p.timed[c])
	}
	return -1, -1
}

// runKey identifies a computation: experiment and derived seed.
type runKey struct {
	id   string
	seed uint64
}

// link assigns every span to the timed request whose handler span
// contains it and whose keys match it (by digest for cache spans, by
// experiment and derived seed for compute spans and forwarded runs),
// then sets each span's parent to the smallest span of the same
// request that contains it. It returns the top handler span of each
// timed request (-1 when missing).
func link(spans []span, p *plan) []int {
	total := len(p.timed[0]) + len(p.timed[1])
	top := make([]int, total)
	for i := range top {
		top[i] = -1
	}
	byDigest := map[string][]int{}
	byRun := map[runKey][]int{}
	for c := range p.timed {
		for j, r := range p.timed[c] {
			n := flat(p, c, j)
			for _, k := range r.keys {
				byDigest[digest(k)] = append(byDigest[digest(k)], n)
				rk := runKey{k.id, rng.Derive(k.seed, k.id)}
				byRun[rk] = append(byRun[rk], n)
			}
		}
	}
	for i := range spans {
		spans[i].parent, spans[i].req = -1, -1
		if s := &spans[i]; s.kind == "handler" && s.client >= 0 {
			n := flat(p, s.client, s.index)
			s.req = n
			top[n] = i
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.req >= 0 {
			continue
		}
		var cands []int
		switch {
		case s.digest != "":
			cands = byDigest[s.digest]
		case s.kind == "compute" || s.kind == "stage" || s.fwd:
			cands = byRun[runKey{s.id, s.seed}]
		}
		for _, n := range cands {
			if t := top[n]; t >= 0 && spans[t].start <= s.start && s.end <= spans[t].end {
				s.req = n
				break
			}
		}
	}
	members := map[int][]int{}
	for i, s := range spans {
		if s.req >= 0 {
			members[s.req] = append(members[s.req], i)
		}
	}
	for _, list := range members {
		sort.Slice(list, func(a, b int) bool {
			x, y := &spans[list[a]], &spans[list[b]]
			if x.start != y.start {
				return x.start < y.start
			}
			if x.end != y.end {
				return x.end > y.end
			}
			return kindRank(x.kind) < kindRank(y.kind)
		})
		for a, i := range list {
			best := -1
			for _, j := range list[:a] {
				if spans[j].start <= spans[i].start && spans[i].end <= spans[j].end &&
					(best < 0 || spans[j].dur() < spans[best].dur()) {
					best = j
				}
			}
			spans[i].parent = best
		}
	}
	return top
}

func kindRank(k string) int {
	return strings.Index("handler get put compute stage", k)
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func selfTimes(spans []span) []time.Duration {
	children := map[int][][2]time.Duration{}
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]time.Duration{s.start, s.end})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(children[i])
	}
	return self
}

// covered is the length of the union of intervals.
func covered(iv [][2]time.Duration) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
		} else if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}
