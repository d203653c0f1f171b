package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"resilience/internal/obs"
)

// maxWarmupBatches bounds setup if a node never fills its trace buffer.
const maxWarmupBatches = 40

// prepare primes the nodes and replays warm-up batches until every node
// has retained a full trace buffer, plus one batch more, so the timed
// phase measures a long-lived daemon rather than the first requests
// after boot. It stops early if a batch leaves every node's span count
// where the scrapes alone would put it (the program retains no spans
// for this traffic).
func prepare(ctx context.Context, cs [clients]*http.Client, urls []string, p *plan, b *bodies, w string) error {
	for _, phase := range p.prime {
		if res := merge(drive(ctx, cs, urls, deal(phase), [clients]int{}, false, b.primeCheck(w), 0, nil)); res.failed > 0 {
			return fmt.Errorf("priming: %d of %d requests failed; first: %v", res.failed, len(phase), res.firstErr)
		}
	}
	counts := make([]int, len(urls))
	full := false
	for batch := 0; batch < maxWarmupBatches; batch++ {
		if res := merge(drive(ctx, cs, urls, deal(p.warmup), [clients]int{}, false, b.servingCheck(w, false), 0, nil)); res.failed > 0 {
			return fmt.Errorf("warm-up: %d of %d requests failed; first: %v", res.failed, len(p.warmup), res.firstErr)
		}
		if full {
			return nil
		}
		grew, all := false, true
		for i, u := range urls {
			s, err := scrapeMetrics(u)
			if err != nil {
				return err
			}
			if len(s.Spans) > counts[i]+1 {
				grew = true
			}
			counts[i] = len(s.Spans)
			all = all && counts[i] >= spanLimit
		}
		if all {
			full = true
		} else if !grew {
			return nil
		}
	}
	return nil
}

// phaseRun is one set-up-and-measure pass over the workload's nodes.
type phaseRun struct {
	setups   []float64 // seconds from spawn to first timed request
	rounds   []result
	timed    result    // the rounds merged
	cpu      float64   // daemon CPU seconds over the timed phase, summed
	cpus     []float64 // per round: daemon CPU seconds, summed
	deltas   []delta   // per node, across the timed phase
	rss      []float64 // per round: peak resident set in MB, summed over daemons
	hwm      float64   // VmHWM at the end, summed over daemons
	checkErr error
}

func scrapeAll(urls []string) ([]*obs.Document, error) {
	out := make([]*obs.Document, len(urls))
	for i, u := range urls {
		s, err := scrapeMetrics(u)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

func cpuAll(ds []*daemon) (float64, error) {
	sum := 0.0
	for _, d := range ds {
		v, err := cpuSeconds(d.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// daemonRun sets the daemons up `repeats` times from scratch (fresh
// processes, fresh cache directories), keeps the last set for the
// timed phase, and checks the outputs.
func daemonRun(ctx context.Context, opt options, urls []string, p *plan, repeats int) (*phaseRun, error) {
	w := opt.workload
	pr := &phaseRun{}
	// Start from a quiet disk and leave one: pending writeback and the
	// discards of deleted cache files, this run's or an earlier one's,
	// would otherwise land in some timed phase.
	syscall.Sync()
	defer syscall.Sync()
	for i := 0; i < repeats; i++ {
		dir := filepath.Join(opt.workdir, fmt.Sprintf("setup%d", i))
		cs := newClients()
		b := newBodies(p)
		start := time.Now()
		ds, err := startDaemons(opt.bin, urls, dir, w.memEntries)
		if err != nil {
			return nil, err
		}
		err = prepare(ctx, cs, urls, p, b, w.name)
		var before []*obs.Document
		if err == nil {
			before, err = scrapeAll(urls)
		}
		pr.setups = append(pr.setups, time.Since(start).Seconds())
		if err == nil && i == repeats-1 {
			err = pr.measure(ctx, cs, urls, p, b, w, ds, before)
		}
		closeClients(cs)
		err = errors.Join(err, stopDaemons(ds))
		// Remove the caches at once: on a filesystem mounted with
		// online discard, deleting files the kernel has not yet written
		// back is nearly free, while deleting written-back ones costs
		// milliseconds each.
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// measure runs the timed phase on prepared daemons, takes the CPU, RSS
// and /metrics readings around it, and runs the output checks.
func (pr *phaseRun) measure(ctx context.Context, cs [clients]*http.Client, urls []string, p *plan, b *bodies, w *workload, ds []*daemon, before []*obs.Document) error {
	cpu0, err := cpuAll(ds)
	if err != nil {
		return err
	}
	tctx, cancel := context.WithTimeout(ctx, phaseLimit)
	rss := sampleRSS(ds)
	last, cpuErr := cpu0, error(nil)
	pr.rounds = drive(tctx, cs, urls, p.timed, [clients]int{}, false, b.servingCheck(w.name, true), w.roundSize,
		func() {
			pr.rss = append(pr.rss, rss.take())
			c, err := cpuAll(ds)
			cpuErr = errors.Join(cpuErr, err)
			pr.cpus = append(pr.cpus, c-last)
			last = c
		})
	cancel()
	if err := errors.Join(cpuErr, rss.close()); err != nil {
		return err
	}
	pr.timed = merge(pr.rounds)
	cpu1, err := cpuAll(ds)
	if err != nil {
		return err
	}
	pr.cpu = cpu1 - cpu0
	after, err := scrapeAll(urls)
	if err != nil {
		return err
	}
	for i := range urls {
		pr.deltas = append(pr.deltas, diff(before[i], after[i]))
	}
	for _, d := range ds {
		hwm, err := statusMB(d.cmd.Process.Pid, "VmHWM")
		if err != nil {
			return err
		}
		pr.hwm += hwm
	}
	pr.checkErr = checkOutputs(w.name, p, b, pr.deltas)
	return nil
}

// checkOutputs runs the checks that need more than one response: the
// cache never errs, and fleet-proxy proxied exactly its first touches
// without errors or sheds and its sample matches in-process runs.
func checkOutputs(w string, p *plan, b *bodies, deltas []delta) error {
	sum := sumDeltas(deltas)
	if n := sum.counters["rescache.errors"]; n != 0 {
		return fmt.Errorf("rescache.errors moved by %d", n)
	}
	switch w {
	case "fleet-proxy":
		firsts := int64(0)
		for _, list := range p.timed {
			for _, r := range list {
				if r.touch == 1 {
					firsts++
				}
			}
		}
		if got := deltas[0].counters["server.proxied"]; got != firsts {
			return fmt.Errorf("server.proxied moved by %d, want %d first touches", got, firsts)
		}
		for _, name := range []string{"server.proxy.errors", "server.shed"} {
			if n := sum.counters[name]; n != 0 {
				return fmt.Errorf("%s moved by %d", name, n)
			}
		}
		return b.verifySample(p)
	}
	return nil
}
