package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"strconv"
	"strings"

	"resilience/internal/cluster"
	"resilience/internal/experiments"
	"resilience/internal/faultinject"
	"resilience/internal/runner"
)

// faultPlan is the recoverable plan one fleet-proxy key in ten
// carries: an error at the body seam on attempt 1, one retry, no
// backoff. It times the runner's retry/degrade path and faultinject
// next to the clean path, and keeps every response a 200.
const faultPlan = `{"name":"perfbench-body-error","retries":1,"faults":[{"experiment":"*","seam":"body","kind":"error","attempt":1,"message":"perfbench: injected body error"}]}`

// Seed spaces keep the experiment seeds of the generated lists apart:
// a key's root seed carries its space in the top byte, so warm-up keys
// can never be the never-seen keys a timed phase sends.
const (
	spaceHot    = 1 // warm-serve's primed hot set
	spaceWarmup = 2 // warm-up keys of fleet-proxy
	spaceTimed  = 3 // never-seen keys of the timed phase
)

// key is one experiment run a request asks for. Every run is quick.
type key struct {
	id   string
	seed uint64 // root seed sent in the request body
	plan bool   // the request carries faultPlan
}

// request is one generated HTTP request and what it touches.
type request struct {
	node  int    // index into the workload's node URLs
	path  string // "/v1/run/e05" or "/v1/suite"
	body  []byte
	keys  []key // experiments the request runs, in response order
	suite bool
	touch int // fleet-proxy: first (1) or second (2) touch of keys[0]; 0 otherwise
}

// plan is everything one workload sends, derived from the workload
// seed alone (and, for fleet-proxy, the nodes' advertised URLs, which
// place keys on the ring).
type plan struct {
	// prime runs phase by phase during setup, each to completion:
	// warm-serve computes and records its hot set, the others compute
	// their warm-up keys.
	prime [][]request
	// warmup is replayed during setup, batch after batch, until every
	// node has retained a full trace buffer.
	warmup []request
	// timed is the measured phase, one list per client.
	timed [clients][]request
	// sample holds timed requests (client, index) whose bodies
	// fleet-proxy re-computes in-process for the output check.
	sample [][2]int
}

// streams derives the independent generators of one workload seed:
// one per list, so warm-up, timed and check choices never share draws.
type streams struct{ hot, warmup, timed, check *rand.Rand }

func newStreams(seed uint64) streams {
	return streams{
		hot:    rand.New(rand.NewPCG(seed, tag("hot"))),
		warmup: rand.New(rand.NewPCG(seed, tag("warmup"))),
		timed:  rand.New(rand.NewPCG(seed, tag("timed"))),
		check:  rand.New(rand.NewPCG(seed, tag("check"))),
	}
}

func tag(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// seedIn draws a root seed in the given space.
func seedIn(space uint64, r *rand.Rand) uint64 { return space<<56 | r.Uint64()>>8 }

// freshSeeds draws n distinct root seeds in a space.
func freshSeeds(space uint64, r *rand.Rand, n int) []uint64 {
	seen := make(map[uint64]bool, n)
	out := make([]uint64, 0, n)
	for len(out) < n {
		s := seedIn(space, r)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func runRequest(node int, k key) request {
	body := `{"seed":` + strconv.FormatUint(k.seed, 10) + `,"quick":true`
	if k.plan {
		body += `,"plan":` + faultPlan
	}
	return request{node: node, path: "/v1/run/" + k.id, body: []byte(body + "}"), keys: []key{k}}
}

func suiteRequest(node int, seed uint64, ids []string) request {
	keys := make([]key, len(ids))
	for i, id := range ids {
		keys[i] = key{id: id, seed: seed}
	}
	body := `{"seed":` + strconv.FormatUint(seed, 10) + `,"quick":true,"ids":["` + strings.Join(ids, `","`) + `"]}`
	return request{node: node, path: "/v1/suite", body: []byte(body), keys: keys, suite: true}
}

// allIDs lists the registry in ID order (e01…e31).
func allIDs() []string {
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// deal splits a list over the clients round-robin, keeping a fleet
// key's second touch with its first so the same client sends both, in
// order.
func deal(list []request) [clients][]request {
	var out [clients][]request
	c := 0
	for i := 0; i < len(list); i++ {
		out[c] = append(out[c], list[i])
		if list[i].touch == 1 && i+1 < len(list) && list[i+1].touch == 2 {
			i++
			out[c] = append(out[c], list[i])
		}
		c = (c + 1) % clients
	}
	return out
}

// Warm-serve shape: a hot set of quick results, about twice the
// daemon's memory tier, so roughly half of all hits fall through to fs.
// The /v1/suite share and size are those of the repository's own
// documented load: the README's `resilience bench` example and CI's
// bench job send -suite-ratio 0.1, and loadgen's suites carry 3 ids.
const (
	warmHotSeeds   = 4
	warmMemEntries = 62 // -cache-mem-entries: half of 31 × warmHotSeeds
	warmSuiteEvery = 10 // one request in ten is a /v1/suite
	warmSuiteSize  = 3
	warmBatch      = 512
)

func genWarm(seed uint64, n int) *plan {
	st := newStreams(seed)
	ids := allIDs()
	seeds := freshSeeds(spaceHot, st.hot, warmHotSeeds)
	p := &plan{}
	// Prime the hot set: one suite per seed records the compact lines,
	// then one run per key records the indented body.
	var suites, runs []request
	for _, s := range seeds {
		suites = append(suites, suiteRequest(0, s, ids))
		for _, id := range ids {
			runs = append(runs, runRequest(0, key{id: id, seed: s}))
		}
	}
	p.prime = [][]request{suites, runs}
	mix := func(r *rand.Rand, n int) []request {
		out := make([]request, n)
		for i := range out {
			s := seeds[r.IntN(len(seeds))]
			if r.IntN(warmSuiteEvery) == 0 {
				perm := r.Perm(len(ids))[:warmSuiteSize]
				pick := make([]string, len(perm))
				for j, x := range perm {
					pick[j] = ids[x]
				}
				out[i] = suiteRequest(0, s, pick)
			} else {
				out[i] = runRequest(0, key{id: ids[r.IntN(len(ids))], seed: s})
			}
		}
		return out
	}
	p.warmup = mix(st.warmup, warmBatch)
	p.timed = deal(mix(st.timed, n))
	return p
}

func pickRefs(r *rand.Rand, refs [][2]int, n int) [][2]int {
	if n > len(refs) {
		n = len(refs)
	}
	out := make([][2]int, 0, n)
	for _, i := range r.Perm(len(refs))[:n] {
		out = append(out, refs[i])
	}
	return out
}

// Fleet-proxy shape: never-seen seeds over all 31 experiments, every
// request entering at node A for a key node B owns, so each first
// touch crosses the ring, a peer-tier 404 and the proxy hop before B
// computes and stores. One key in fifteen is touched a second time by
// the same client: a peer-tier read with backfill. One key in ten
// carries faultPlan, so B's runner retries it; a faulted result is
// never cached, so no such key is touched twice. The share of second
// touches sets where the median falls.
// At one in fifteen it falls among the first touches of e20 and e23,
// about 2 ms of quick compute each; with one key in three or two in
// three touched twice it fell among sub-millisecond requests whose
// latency the other client's computations stretch, and p50 moved
// 15–20% between runs on a 2-core VM.
const (
	fleetWarmupKeys = 62
	fleetBatch      = 512
	fleetGroup      = 15 // of every fleetGroup keys,
	fleetSeconds    = 1  // the first fleetSeconds are touched twice
	fleetFaultEvery = 10 // one key in this many carries faultPlan
	// The output check re-computes this many sampled first touches
	// in-process, clean and faulted.
	fleetSampleClean = 48
	fleetSampleFault = 16
)

// fleetKeys draws n distinct never-sent keys whose cache digest node B
// (urls[1]) owns on the ring the daemons build from their advertised
// URLs, with ids round-robin in shuffled blocks of 31 so every run has
// the same mix; key i carries faultPlan when planned(i).
func fleetKeys(space uint64, r *rand.Rand, n int, urls []string, planned func(i int) bool) []key {
	ring := cluster.New(urls, 0)
	ids := allIDs()
	seen := make(map[key]bool, n)
	out := make([]key, 0, n)
	var order []int
	for len(out) < n {
		if len(out)%len(ids) == 0 {
			order = r.Perm(len(ids))
		}
		id := ids[order[len(out)%len(ids)]]
		for {
			k := key{id: id, seed: seedIn(space, r), plan: planned(len(out))}
			if !seen[k] && ring.Owner(digest(k)) == urls[1] {
				seen[k] = true
				out = append(out, k)
				break
			}
		}
	}
	return out
}

// touches lists the i-th key's fleet requests to node A: the first
// touch and, for fleetSeconds keys of every fleetGroup, a second one.
func touches(i int, k key) []request {
	first := runRequest(0, k)
	first.touch = 1
	if i%fleetGroup >= fleetSeconds {
		return []request{first}
	}
	second := runRequest(0, k)
	second.touch = 2
	return []request{first, second}
}

func genFleet(seed uint64, n int, urls []string) *plan {
	st := newStreams(seed)
	p := &plan{}
	// Warm-up keys get both touches, so the warm-up hits below find
	// them on both nodes.
	warm := fleetKeys(spaceWarmup, st.warmup, fleetWarmupKeys, urls, func(int) bool { return false })
	var prime []request
	for _, k := range warm {
		prime = append(prime, touches(0, k)...)
	}
	p.prime = [][]request{prime}
	// Warm-up hits: A serves its backfilled copies, B its own entries,
	// so both nodes fill their trace buffers without new computation.
	for i := 0; i < fleetBatch; i++ {
		p.warmup = append(p.warmup, runRequest(i%2, warm[st.warmup.IntN(len(warm))]))
	}
	planned := func(i int) bool { return i%fleetGroup >= fleetSeconds && i%fleetFaultEvery == fleetFaultEvery-1 }
	var list []request
	for i, k := range fleetKeys(spaceTimed, st.timed, n*fleetGroup/(fleetGroup+fleetSeconds), urls, planned) {
		list = append(list, touches(i, k)...)
	}
	p.timed = deal(list)
	// Output-check sample: first touches, clean and faulted, so each
	// runner path is verified against an in-process run.
	var cleanRefs, faultRefs [][2]int
	for c := range p.timed {
		for i, r := range p.timed[c] {
			switch {
			case r.touch != 1:
			case r.keys[0].plan:
				faultRefs = append(faultRefs, [2]int{c, i})
			default:
				cleanRefs = append(cleanRefs, [2]int{c, i})
			}
		}
	}
	p.sample = append(pickRefs(st.check, cleanRefs, fleetSampleClean), pickRefs(st.check, faultRefs, fleetSampleFault)...)
	return p
}

// planHash is the cache-key hash of faultPlan.
var planHash = func() string {
	p, err := faultinject.Parse([]byte(faultPlan))
	if err != nil {
		panic(fmt.Sprintf("perfbench: fault plan: %v", err))
	}
	return p.Hash()
}()

// cacheKey is the rescache key the daemon computes for k.
func (k key) options() runner.Options {
	o := runner.Options{Seed: k.seed, Quick: true}
	if k.plan {
		o.PlanHash = planHash
	}
	return o
}

func digest(k key) string {
	return runner.CacheKey(k.options(), experiments.Experiment{ID: k.id}).Digest()
}
