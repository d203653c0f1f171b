package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"resilience/internal/obs"
)

// daemon is one `resilience serve` process under test.
type daemon struct {
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan error // receives cmd.Wait's result once
}

// nodeFlags are the only flags the benchmark sets: addresses, cache
// directories, ring membership and warm-serve's memory-tier size.
// Everything else stays at its default, so a PR that changes a default
// shows up in the numbers.
func nodeFlags(i int, urls []string, dir string, memEntries int) []string {
	addr := strings.TrimPrefix(urls[i], "http://")
	args := []string{"serve", "-addr", addr, "-cache-dir", dir}
	if memEntries > 0 {
		args = append(args, "-cache-mem-entries", strconv.Itoa(memEntries))
	}
	if len(urls) > 1 {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		args = append(args, "-peers", strings.Join(peers, ","), "-advertise", urls[i])
	}
	return args
}

// startDaemons boots one daemon per URL and waits until each answers
// /readyz. On error every daemon already started is stopped.
func startDaemons(bin string, urls []string, workdir string, memEntries int) ([]*daemon, error) {
	var ds []*daemon
	for i := range urls {
		dir := filepath.Join(workdir, fmt.Sprintf("node%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			stopDaemons(ds)
			return nil, err
		}
		log, err := os.Create(filepath.Join(workdir, fmt.Sprintf("node%d.log", i)))
		if err != nil {
			stopDaemons(ds)
			return nil, err
		}
		cmd := exec.Command(bin, nodeFlags(i, urls, filepath.Join(dir, "cache"), memEntries)...)
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
		cmd.Stdout, cmd.Stderr = log, log
		// The daemons must not outlive the benchmark, even if it is
		// killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			log.Close()
			stopDaemons(ds)
			return nil, fmt.Errorf("start %s: %w", bin, err)
		}
		d := &daemon{url: urls[i], cmd: cmd, log: log, done: make(chan error, 1)}
		go func() { d.done <- cmd.Wait() }()
		ds = append(ds, d)
	}
	for _, d := range ds {
		if err := d.awaitReady(15 * time.Second); err != nil {
			stopDaemons(ds)
			return nil, err
		}
	}
	return ds, nil
}

func (d *daemon) awaitReady(limit time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.done:
			d.done <- err
			return fmt.Errorf("daemon %s exited before ready: %v (log %s)", d.url, err, d.log.Name())
		default:
		}
		resp, err := client.Get(d.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("daemon %s not ready after %v (log %s)", d.url, limit, d.log.Name())
}

// stopDaemons drains every daemon with SIGTERM, kills any that has not
// exited after a grace period, and waits until all have ended.
func stopDaemons(ds []*daemon) error {
	var errs []error
	for _, d := range ds {
		d.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, d := range ds {
		select {
		case err := <-d.done:
			if err != nil {
				errs = append(errs, fmt.Errorf("daemon %s: %v (log %s)", d.url, err, d.log.Name()))
			}
		case <-time.After(15 * time.Second):
			d.cmd.Process.Kill()
			<-d.done
			errs = append(errs, fmt.Errorf("daemon %s did not drain; killed", d.url))
		}
		d.log.Close()
	}
	return errors.Join(errs...)
}

// pickURLs finds n free consecutive loopback ports, trying the same
// base ports first so that, on a quiet machine, every run of a fleet
// workload advertises the same URLs and so places the same keys.
func pickURLs(n int) ([]string, error) {
	for base := 39400; base < 39400+64*n; base += n {
		var ls []net.Listener
		for i := 0; i < n; i++ {
			l, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(base+i))
			if err != nil {
				break
			}
			ls = append(ls, l)
		}
		for _, l := range ls {
			l.Close()
		}
		if len(ls) == n {
			urls := make([]string, n)
			for i := range urls {
				urls[i] = "http://127.0.0.1:" + strconv.Itoa(base+i)
			}
			return urls, nil
		}
	}
	return nil, errors.New("no free loopback ports")
}

func scrapeMetrics(url string) (*obs.Document, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: status %d", url, resp.StatusCode)
	}
	var doc obs.Document
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("%s/metrics: %w", url, err)
	}
	return &doc, nil
}

// delta is what one daemon's /metrics moved between two scrapes: the
// counters, and the count and sum of every timing and histogram, each
// kept as a TimingSnapshot for its Mean.
type delta struct {
	counters map[string]int64
	stats    map[string]obs.TimingSnapshot
}

func diff(before, after *obs.Document) delta {
	d := delta{counters: map[string]int64{}, stats: map[string]obs.TimingSnapshot{}}
	for name, v := range after.Counters {
		d.counters[name] = v - before.Counters[name]
	}
	for name, v := range after.Timings {
		b := before.Timings[name]
		d.stats[name] = obs.TimingSnapshot{Count: v.Count - b.Count, Sum: v.Sum - b.Sum}
	}
	for name, v := range after.Histograms {
		b := before.Histograms[name]
		d.stats[name] = obs.TimingSnapshot{Count: v.Count - b.Count, Sum: v.Sum - b.Sum}
	}
	return d
}

// sumDeltas adds the deltas of several daemons.
func sumDeltas(ds []delta) delta {
	out := delta{counters: map[string]int64{}, stats: map[string]obs.TimingSnapshot{}}
	for _, d := range ds {
		for name, v := range d.counters {
			out.counters[name] += v
		}
		for name, v := range d.stats {
			s := out.stats[name]
			out.stats[name] = obs.TimingSnapshot{Count: s.Count + v.Count, Sum: s.Sum + v.Sum}
		}
	}
	return out
}

// cpuSeconds reads a process's on-CPU time, summed over its threads'
// scheduler statistics (nanoseconds, unlike the clock ticks of
// /proc/<pid>/stat).
func cpuSeconds(pid int) (float64, error) {
	dir := "/proc/" + strconv.Itoa(pid) + "/task"
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns uint64
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(data))
		if len(f) < 1 {
			return 0, fmt.Errorf("malformed %s/%s/schedstat", dir, t.Name())
		}
		v, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		ns += v
	}
	return float64(ns) / 1e9, nil
}

// statusMB reads a memory field of /proc/<pid>/status ("VmRSS",
// "VmHWM") in MB (2^20 bytes).
func statusMB(pid int, field string) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field+":" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// rssSampler samples the daemons' summed resident set every 10 ms and
// keeps the peak of each window.
type rssSampler struct {
	ds   []*daemon
	mu   sync.Mutex
	peak float64
	err  error
	stop chan struct{}
	done chan struct{}
}

func sampleRSS(ds []*daemon) *rssSampler {
	s := &rssSampler{ds: ds, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	sum := 0.0
	var err error
	for _, d := range s.ds {
		v, e := statusMB(d.cmd.Process.Pid, "VmRSS")
		sum, err = sum+v, errors.Join(err, e)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.peak = max(s.peak, sum)
	if s.err == nil {
		s.err = err
	}
}

// take returns the peak since the previous take and opens a new window.
func (s *rssSampler) take() float64 {
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.peak
	s.peak = 0
	return p
}

// close stops the sampler, waits for it, and reports any read error.
func (s *rssSampler) close() error {
	close(s.stop)
	<-s.done
	return s.err
}
