package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// reqHeader numbers a timed request so the traced run can find its
// handler span. The server ignores unknown headers.
const reqHeader = "X-Perfbench-Request"

// check verifies one 2xx response body (valid only during the call;
// copy to keep); client and index locate the request in its list. It
// runs on the client's goroutine, after the latency sample is taken,
// and must be safe for concurrent use across clients.
type check func(client, index int, r *request, body []byte) error

// result is one phase's outcome.
type result struct {
	sent, ok, failed int
	latency          []time.Duration // one per completed request
	start, end       time.Time
	firstErr         error
}

// newClients builds one HTTP client per virtual client, each with its
// own transport, so the closed loop runs on `clients` keep-alive
// connections (per node).
func newClients() [clients]*http.Client {
	var cs [clients]*http.Client
	for i := range cs {
		cs[i] = &http.Client{
			Timeout: 2 * time.Minute,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
	}
	return cs
}

func closeClients(cs [clients]*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// drive replays the lists closed-loop: each client sends its next
// request only after the previous response's last byte arrived. base
// is each list's offset in its client's full list, for the request
// numbers checks and reqHeader (sent when tagged) see. ctx bounds the
// phase; requests left unsent when it expires count as failed.
//
// With size > 0 the pass is cut into rounds of size consecutive
// completions, over all clients together, and after (when set) runs at
// each cut, on the client goroutine that completed the round, before
// any later completion is counted; no client waits for another at a
// cut. With size 0 the whole pass is one round.
func drive(ctx context.Context, cs [clients]*http.Client, urls []string, lists [clients][]request, base [clients]int, tagged bool, chk check, size int, after func()) []result {
	t := &tally{size: size, after: after}
	t.cur.start = time.Now()
	var wg sync.WaitGroup
	for c := range lists {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range lists[c] {
				r := &lists[c][i]
				if ctx.Err() != nil {
					t.unsent(len(lists[c])-i, fmt.Errorf("phase cut at its time limit with %d requests unsent", len(lists[c])-i))
					break
				}
				lat, err := send(cs[c], urls[r.node], r, tagged, c, base[c]+i, &buf, chk)
				if err != nil {
					err = fmt.Errorf("%s %s: %w", r.path, r.body, err)
				}
				t.add(lat, err)
			}
		}(c)
	}
	wg.Wait()
	return t.close()
}

// tally collects the completions of one drive and cuts them into
// rounds. after runs with the tally locked, so its readings close the
// round before any later completion is counted; it must not call back
// into the tally.
type tally struct {
	mu     sync.Mutex
	size   int
	after  func()
	cur    result
	rounds []result
}

func (t *tally) add(lat time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur.sent++
	t.cur.latency = append(t.cur.latency, lat)
	if err != nil {
		t.fail(1, err)
	} else {
		t.cur.ok++
	}
	if t.size > 0 && t.cur.sent == t.size {
		t.cut()
	}
}

func (t *tally) unsent(n int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fail(n, err)
}

func (t *tally) fail(n int, err error) {
	t.cur.failed += n
	if t.cur.firstErr == nil {
		t.cur.firstErr = err
	}
}

func (t *tally) cut() {
	t.cur.end = time.Now()
	if t.after != nil {
		t.after()
	}
	t.rounds = append(t.rounds, t.cur)
	t.cur = result{start: t.cur.end}
}

// close ends the last round, unless it is empty.
func (t *tally) close() []result {
	if t.cur.sent > 0 || t.cur.failed > 0 || len(t.rounds) == 0 {
		t.cut()
	}
	return t.rounds
}

// send posts one request and returns its latency, request sent to last
// body byte, and any transport, status or check error.
func send(c *http.Client, base string, r *request, tagged bool, client, index int, buf *bytes.Buffer, chk check) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tagged {
		req.Header.Set(reqHeader, strconv.Itoa(client)+"/"+strconv.Itoa(index))
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return time.Since(start), err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	if resp.StatusCode/100 != 2 {
		return lat, fmt.Errorf("status %d: %s", resp.StatusCode, firstLine(buf.Bytes()))
	}
	if chk == nil {
		return lat, nil
	}
	return lat, chk(client, index, r, buf.Bytes())
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// merge combines the rounds into one result for the whole phase.
func merge(rs []result) result {
	var m result
	for i, r := range rs {
		if i == 0 {
			m.start = r.start
		}
		m.end = r.end
		m.sent += r.sent
		m.ok += r.ok
		m.failed += r.failed
		m.latency = append(m.latency, r.latency...)
		if m.firstErr == nil {
			m.firstErr = r.firstErr
		}
	}
	return m
}
