package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"sync"

	"resilience/internal/experiments"
	"resilience/internal/faultinject"
	"resilience/internal/runner"
	"resilience/internal/server"
)

// bodies holds the response bytes the output checks compare against.
type bodies struct {
	mu      sync.Mutex
	indent  map[key][]byte    // /v1/run bodies (indented) by key
	compact map[key][]byte    // /v1/suite lines (compact) by key
	sampled map[[2]int][]byte // fleet-proxy: timed bodies to re-compute
	want    map[[2]int]bool   // fleet-proxy: which timed requests are sampled
	// fresh holds Results computed in this process, with their Go
	// types, by key: fleet-proxy's verified sample.
	fresh map[key]*experiments.Result
	// last is each client's latest timed fleet-proxy first touch: a
	// key's second touch follows it on the same client, so one slot per
	// client keeps the generator's memory flat over a long run.
	last [clients]struct {
		k    key
		body []byte
	}
}

func newBodies(p *plan) *bodies {
	b := &bodies{indent: map[key][]byte{}, compact: map[key][]byte{}, sampled: map[[2]int][]byte{}, want: map[[2]int]bool{}, fresh: map[key]*experiments.Result{}}
	for _, ref := range p.sample {
		b.want[ref] = true
	}
	return b
}

func (b *bodies) get(m map[key][]byte, k key) []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return m[k]
}

func (b *bodies) size() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.indent)
}

func (b *bodies) put(m map[key][]byte, k key, data []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	m[k] = bytes.Clone(data)
}

// idPrefix checks that an indented /v1/run body is the document of the
// requested experiment.
func idPrefix(body []byte, id string) error {
	if !bytes.HasPrefix(body, []byte("{\n  \"id\": \""+id+"\",")) {
		return fmt.Errorf("body is not experiment %s: %s", id, firstLine(body))
	}
	return nil
}

// primeCheck records warm-serve's priming responses (suite lines first,
// then indented run bodies, which must compact to the suite lines) and
// the first touches of fleet-proxy's warm-up keys.
func (b *bodies) primeCheck(w string) check {
	return func(_, _ int, r *request, body []byte) error {
		switch {
		case r.suite:
			lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
			if len(lines) != len(r.keys) {
				return fmt.Errorf("suite returned %d lines for %d ids", len(lines), len(r.keys))
			}
			for i, k := range r.keys {
				b.put(b.compact, k, lines[i])
			}
			return nil
		case r.touch == 2:
			return b.same(r.keys[0], body)
		}
		k := r.keys[0]
		if err := idPrefix(body, k.id); err != nil {
			return err
		}
		b.put(b.indent, k, body)
		if line := b.get(b.compact, k); line != nil {
			var c bytes.Buffer
			if err := json.Compact(&c, body); err != nil || !bytes.Equal(c.Bytes(), line) {
				return fmt.Errorf("%s seed %d: /v1/run body does not compact to its /v1/suite line", k.id, k.seed)
			}
		}
		return nil
	}
}

func (b *bodies) same(k key, body []byte) error {
	want := b.get(b.indent, k)
	if want == nil {
		return fmt.Errorf("%s seed %d: no recorded body to compare", k.id, k.seed)
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("%s seed %d: body differs from its first response", k.id, k.seed)
	}
	return nil
}

// servingCheck verifies warm-up and timed responses; timed marks the
// timed phase, whose sampled fleet-proxy bodies it keeps.
func (b *bodies) servingCheck(w string, timed bool) check {
	return func(client, index int, r *request, body []byte) error {
		switch {
		case r.suite:
			rest := body
			for _, k := range r.keys {
				line := b.get(b.compact, k)
				if !bytes.HasPrefix(rest, line) || len(rest) == len(line) || rest[len(line)] != '\n' {
					return fmt.Errorf("suite line for %s seed %d differs from its priming response", k.id, k.seed)
				}
				rest = rest[len(line)+1:]
			}
			if len(rest) != 0 {
				return errors.New("suite body has trailing lines")
			}
			return nil
		case r.touch == 1:
			if err := idPrefix(body, r.keys[0].id); err != nil {
				return err
			}
			if ref := [2]int{client, index}; timed && b.want[ref] {
				b.mu.Lock()
				b.sampled[ref] = bytes.Clone(body)
				b.mu.Unlock()
			}
			b.last[client].k, b.last[client].body = r.keys[0], append(b.last[client].body[:0], body...)
			if b.size() < corpusLimit {
				b.put(b.indent, r.keys[0], body) // for the call measurements
			}
			return nil
		case r.touch == 2:
			if l := b.last[client]; l.k != r.keys[0] || !bytes.Equal(body, l.body) {
				return fmt.Errorf("%s seed %d: second touch differs from the first", r.keys[0].id, r.keys[0].seed)
			}
			return nil
		}
		return b.same(r.keys[0], body)
	}
}

// wallClock matches the scalars an experiment records as measured wall
// time: E04's synthesisTime/* (EXPERIMENTS.md: recorded as JSON scalars
// so the text report stays byte-reproducible). Two computations of the
// same key differ exactly there, so fresh bodies, indented or compact,
// compare with those values masked.
var wallClock = regexp.MustCompile(`("name":\s*"synthesisTime/[^"]*",\s*"value":\s*)"[^"]*"`)

func maskWallClock(body []byte) []byte {
	return wallClock.ReplaceAll(body, []byte(`${1}"<wall-clock>"`))
}

// inProcess computes k in this process with runner.Run, under the
// options the server builds for the same key and plan.
func inProcess(k key) (runner.Outcome, error) {
	exp, ok := experiments.Find(k.id)
	if !ok {
		return runner.Outcome{}, fmt.Errorf("no experiment %s", k.id)
	}
	opts := k.options()
	opts.Jobs = 1
	opts.Timeout = server.DefaultRequestTimeout
	if k.plan {
		pl, err := faultinject.Parse([]byte(faultPlan))
		if err != nil {
			return runner.Outcome{}, err
		}
		opts.Hooks, opts.Retries, opts.Backoff = pl.HookFor, pl.Retries, pl.Backoff()
	}
	var out runner.Outcome
	runner.Run([]experiments.Experiment{exp}, opts, func(o runner.Outcome) { out = o })
	if out.Err != nil || out.Canon == nil || out.Result == nil {
		return out, fmt.Errorf("in-process %s seed %d failed: %v", k.id, k.seed, out.Err)
	}
	return out, nil
}

// verifySample re-computes fleet-proxy's sampled requests in-process,
// renders them with experiments.RenderJSONBytes and compares bytes. It
// keeps each fresh Result for the encode measurement.
func (b *bodies) verifySample(p *plan) error {
	for _, ref := range p.sample {
		r := p.timed[ref[0]][ref[1]]
		got, ok := b.sampled[ref]
		if !ok {
			return fmt.Errorf("sampled request %s %s was not answered", r.path, r.body)
		}
		k := r.keys[0]
		out, err := inProcess(k)
		if err != nil {
			return err
		}
		b.fresh[k] = out.Result
		var want bytes.Buffer
		if err := experiments.RenderJSONBytes(&want, out.Canon); err != nil {
			return err
		}
		if !bytes.Equal(maskWallClock(got), maskWallClock(want.Bytes())) {
			return fmt.Errorf("%s seed %d (plan %t): served body differs from in-process runner.Run", k.id, k.seed, k.plan)
		}
	}
	return nil
}
