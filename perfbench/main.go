// Command perfbench is the repository's serving benchmark. It boots
// `resilience serve` (built from the tree under test) as real daemon
// processes, drives a count-bounded closed-loop workload at them from
// this one generator process, checks every response, and prints the
// end-to-end metrics; with -trace 1 it also replays the same request
// lists against in-process nodes with spans around every layer a serve
// request crosses and prints the per-layer metrics instead.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload warm-serve --seed 1 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Everything above it is the human-readable report.
//
// Seed 7919 is held out: a later change tuned on other seeds confirms
// its claimed gain on seed 7919 before it counts.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

const (
	// clients is the closed loop's width: two clients on two keep-alive
	// connections, one per core of the 2-core box the bounds were set on.
	// Two keep both cores busy; with one, the cores idle between the
	// generator's and the daemon's turns, and on a virtual machine each
	// wake-up from idle costs whatever the host is busy with: run for
	// run on the same host, one-client throughput and p50 moved two to
	// four times as far between runs.
	clients = 2
	// procs is GOMAXPROCS for the generator and for every daemon. Go
	// 1.24 ignores container CPU quotas, so it is set, not inherited.
	procs = 2
	// spanLimit is serve's retained-span limit. Setup warms each daemon
	// until it holds this many spans: from then on every new span
	// trims the buffer, which is the long-lived daemon's steady state.
	spanLimit = 4096
	// setupRepeats is how many times an untraced run sets up from
	// scratch; setup_s is the median.
	setupRepeats = 3
	// p99Window is the fewest samples a p99 is read from: ten lie
	// beyond it. Consecutive rounds are merged into windows this large.
	p99Window = 1000
	// minRounds is the fewest rounds a timed phase is split into.
	minRounds = 8
	// phaseLimit cuts a phase that runs far beyond its nominal length,
	// so a run always ends within a few minutes; unsent requests count
	// as failed.
	phaseLimit = 100 * time.Second
)

// workload is one traffic mix.
type workload struct {
	name       string
	nodes      int
	memEntries int // -cache-mem-entries; 0 keeps the daemon default
	// rate is the number of timed requests per second of -seconds, set
	// so the timed phase lasts about -seconds on a 2-core box. The
	// count, not the clock, bounds the phase: both commits of a
	// comparison send identical lists.
	rate float64
	// roundSize is the number of consecutive completions in one round
	// of the timed phase; throughput, p50 and daemon CPU are read per
	// round. Warm-serve's rounds last about 0.2 s; fleet-proxy's hold
	// about four blocks of the 31 ids and last about 0.7 s.
	roundSize int
	gen       func(seed uint64, n int, urls []string) *plan
}

var workloads = []workload{
	{name: "warm-serve", nodes: 1, memEntries: warmMemEntries, rate: 5000, roundSize: 1000,
		gen: func(seed uint64, n int, _ []string) *plan { return genWarm(seed, n) }},
	{name: "fleet-proxy", nodes: 2, rate: 175, roundSize: 124, gen: genFleet},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func main() {
	runtime.GOMAXPROCS(procs)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload *workload
	seed     uint64
	seconds  int
	trace    bool
	bin      string
	out      string // build and output directory
	workdir  string // this run's cache dirs and logs, removed at exit
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: warm-serve or fleet-proxy")
	seed := fs.Uint64("seed", 1, "workload seed; every request list derives from it")
	seconds := fs.Int("seconds", 10, "nominal length of the timed phase")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run with per-layer metrics")
	bin := fs.String("bin", ".bench_build/perfbench/resilience", "resilience binary built from the tree under test")
	outDir := fs.String("out", ".bench_build/perfbench", "directory for cache dirs, logs and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err == nil && *seconds < 1 {
		err = errors.New("-seconds must be at least 1")
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = errors.New("-trace must be 0 or 1")
	}
	if err == nil {
		if _, serr := os.Stat(*bin); serr != nil {
			err = fmt.Errorf("resilience binary: %w", serr)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	opt := options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, bin: *bin, out: *outDir}
	opt.workdir = filepath.Join(*outDir, "run", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(opt.workdir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	out, err := execute(ctx, opt, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates the metrics of a run and prints each as it is set.
type report struct {
	w       io.Writer
	metrics map[string]metric
}

// set records a metric named in endToEndMetrics or metricSpecs, with
// the unit listed there.
func (r *report) set(name string, v float64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	unit := ""
	for _, m := range append(endToEndMetrics[:len(endToEndMetrics):len(endToEndMetrics)], metricSpecs...) {
		if m.name == name {
			unit = m.unit
		}
	}
	if unit == "" {
		panic("perfbench: metric " + name + " is in no metric table")
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.w, "  %-30s %14.6g %-6s %s\n", name, v, unit, note)
}

func execute(ctx context.Context, opt options, stdout io.Writer) (*output, error) {
	w := opt.workload
	urls, err := pickURLs(w.nodes)
	if err != nil {
		return nil, err
	}
	n := int(math.Round(float64(opt.seconds) * w.rate))
	n = max(n, minRounds*w.roundSize, 2*p99Window)
	n = (n + w.roundSize - 1) / w.roundSize * w.roundSize
	p := w.gen(opt.seed, n, urls)
	timed := len(p.timed[0]) + len(p.timed[1])
	fmt.Fprintf(stdout, "perfbench %s: seed %d, %d timed requests (nominal %ds), closed loop of %d clients, %d node(s), GOMAXPROCS=%d for generator and daemons\n",
		w.name, opt.seed, timed, opt.seconds, clients, w.nodes, procs)

	rep := &report{w: stdout, metrics: map[string]metric{}}
	out := &output{Metrics: rep.metrics}
	repeats := setupRepeats
	if opt.trace {
		repeats = 1
	}
	d, err := daemonRun(ctx, opt, urls, p, repeats)
	if err != nil {
		return nil, err
	}
	out.Attempted, out.Failed = d.timed.sent, d.timed.failed
	out.Correct = d.checkErr == nil && d.timed.failed == 0
	fmt.Fprintf(stdout, "requests: sent %d, ok %d, failed %d\n", d.timed.sent, d.timed.ok, d.timed.failed)
	if d.timed.firstErr != nil {
		fmt.Fprintf(stdout, "first failure: %v\n", d.timed.firstErr)
	}
	if d.checkErr != nil {
		fmt.Fprintf(stdout, "output check FAILED: %v\n", d.checkErr)
	} else {
		fmt.Fprintf(stdout, "output checks: passed (%s)\n", checkSummary(w.name, p))
	}

	if !opt.trace {
		fmt.Fprintln(stdout, "end-to-end metrics (untraced daemons):")
		if err := d.endToEnd(rep); err != nil {
			return nil, err
		}
		return out, sameNames(rep.metrics, endToEndMetrics)
	}
	fmt.Fprintln(stdout, "per-layer metrics from the untraced daemons:")
	d.daemonLayers(rep)
	t, err := tracedRun(ctx, opt, urls, p)
	if err != nil {
		return nil, err
	}
	if t.checkErr != nil || t.timed.failed > 0 {
		out.Correct = false
		fmt.Fprintf(stdout, "traced run: output check FAILED: %v %v\n", t.checkErr, t.timed.firstErr)
	}
	out.Attempted += t.timed.sent
	out.Failed += t.timed.failed
	if err := t.layers(rep, d, opt, p, urls); err != nil {
		return nil, err
	}
	return out, sameNames(rep.metrics, metricSpecs)
}

// sameNames checks that a run reported exactly the metrics it promises.
func sameNames(got map[string]metric, want []metricSpec) error {
	for _, m := range want {
		if _, ok := got[m.name]; !ok {
			return fmt.Errorf("metric %s not reported", m.name)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(got), len(want))
	}
	return nil
}

func checkSummary(w string, p *plan) string {
	if w == "warm-serve" {
		return "every body byte-identical to its priming response"
	}
	return fmt.Sprintf("second touches byte-identical to first touches; %d sampled bodies byte-identical to in-process runner.Run, E04's wall-clock scalars masked; proxied = first touches; no proxy errors, sheds or cache errors", len(p.sample))
}
