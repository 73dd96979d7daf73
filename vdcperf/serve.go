package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"time"

	"vdcpower/internal/serve"
	"vdcpower/internal/stats"
	"vdcpower/internal/telemetry"
	"vdcpower/internal/testbed"
)

// routes are the requests of one refresh of the dashboard that serve
// itself serves at /: it fetches them one after another, then waits a
// second before the next refresh. It is the server's only client in the
// repository, and it sends no writes.
var routes = []struct{ name, target string }{
	{"status", "/status"},
	{"history", "/history?n=200"},
	{"scorecard", "/scorecard"},
	{"timings", "/timings"},
}

const (
	// requestDeadline fails a request, or a whole refresh timed from when
	// it was due, slower than this many seconds.
	requestDeadline = 1.0
	// serveHistory is how many period records a server keeps for
	// /history, from which a pass reads its outputs back.
	serveHistory = 2048
)

// runServe runs serve-live. An unloaded reference server is stepped
// first; the loaded servers' outputs must match it period by period, so
// the dashboard traffic may contend for the lock but never change the
// trajectory. Then the servers are replayed like the testbed
// constructions, this goroutine stepping each in turn, while the load
// generator refreshes the dashboard from a second goroutine against
// whichever server is being stepped.
func runServe(r *run) error {
	if r.size.periods > serveHistory {
		return fmt.Errorf("%d periods per server exceed the %d records /history keeps", r.size.periods, serveHistory)
	}
	seeds, err := r.constructionSeeds(r.size.units)
	if err != nil {
		return err
	}
	cfg := testbed.DefaultConfig()
	r.stepSec = cfg.Period
	config := func(i int) testbed.Config {
		c := cfg
		c.Seed = seeds[i]
		return c
	}
	lay := &serveTally{}
	ref, err := r.servePass(config(0), r.size.refPeriods, 0, nil, lay, nil)
	if err != nil {
		return err
	}
	r.refSteps = ref.stepMS
	// With no load running, the reference pass's allocations are the
	// steps' own.
	unloadedAllocs := float64(ref.allocs) / float64(len(ref.stepMS))
	var plain passOut
	if r.traced() {
		// The observers' and the mutex's cost: the unloaded server's step
		// against a plain testbed period of the same construction, timed
		// right after it.
		if plain, err = r.testbedPass(tbPass{seed: seeds[0], periods: r.size.refPeriods, sched: steady}); err != nil {
			return err
		}
	}

	fr := &front{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listening on loopback: %w", err)
	}
	hs := &http.Server{Handler: fr, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	ld := newLoad(r, "http://"+ln.Addr().String())
	loaded := make(chan struct{})
	started := false
	ready := func(srv *serve.Server) {
		h := srv.Handler()
		fr.h.Store(&h)
		if !started {
			started = true
			start := r.clock()
			go func() {
				defer close(loaded)
				ld.run(start)
			}()
		}
	}

	// Each Server.Step arms a 10 s watchdog timer that keeps its server
	// reachable until it fires, so the servers stepped in the last 10 s
	// stay in memory, the more of them the faster the host. Holding every
	// server of the fixed rounds, over which peak_rss_mb is read, makes
	// their live set the same on every host. The replays hold none.
	var held []*serve.Server
	stepErr := r.replay(len(seeds), ref.hashes, func(p passSpec) (passOut, error) {
		replayed := p.stopAt > 0
		if replayed {
			held = nil
		}
		return r.servePass(config(p.index), r.size.periods, p.stopAt, r.tracer.Track("serve"), lay, func(srv *serve.Server) {
			if !replayed {
				held = append(held, srv)
			}
			ready(srv)
		})
	})
	close(ld.quit)
	if started {
		<-loaded
	}
	ld.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutErr := hs.Shutdown(ctx)
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serving: %w", err)
	}
	if stepErr != nil {
		return stepErr
	}
	if shutErr != nil {
		return fmt.Errorf("shutting the server down: %w", shutErr)
	}
	r.attempted += ld.attempted
	r.failed += ld.failed
	r.problems = append(r.problems, ld.problems...)
	if r.traced() {
		return r.serveLayers(lay, ld, plain.stepMS, unloadedAllocs)
	}
	return nil
}

// front forwards each request to the server being stepped, so that one
// listener and one keep-alive connection serve every construction.
type front struct {
	h atomic.Pointer[http.Handler]
}

func (f *front) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	(*f.h.Load()).ServeHTTP(w, req)
}

// serveTally collects the set-up times of serve-live's passes.
type serveTally struct {
	testbedNew, serve []float64 // host s of testbed.New and serve.New
}

// servePass builds a testbed, wraps it in a serve.Server and steps it up
// to n times, with a span per step on tk. The periods' records are read
// back through the server's own /history route after the last step.
// ready, if set, receives the server before the first step.
func (r *run) servePass(cfg testbed.Config, n int, stopAt float64, tk *telemetry.Track, lay *serveTally, ready func(*serve.Server)) (passOut, error) {
	var out passOut
	sp := tk.Start("testbed.new")
	t0 := r.clock()
	tb, err := testbed.New(cfg)
	t1 := r.clock()
	sp.End()
	if err != nil {
		return out, fmt.Errorf("testbed.New: %w", err)
	}
	sp = tk.Start("serve.new")
	srv := serve.New(tb)
	t2 := r.clock()
	sp.End()
	out.setupS = t2 - t0
	lay.testbedNew = append(lay.testbedNew, t1-t0)
	lay.serve = append(lay.serve, t2-t1)
	if ready != nil {
		ready(srv)
	}

	m0 := r.mallocs()
	for k := 0; k < n && (stopAt <= 0 || r.clock() < stopAt); k++ {
		sp := tk.Start("serve.step")
		t0 := r.clock()
		err := srv.Step()
		out.stepMS = append(out.stepMS, 1000*(r.clock()-t0))
		sp.End()
		if !r.check(err == nil, "Server.Step %d: %v", k, err) {
			break
		}
	}
	out.allocs = r.mallocs() - m0

	recs, err := history(srv.Handler(), len(out.stepMS))
	if err != nil {
		return out, err
	}
	setpoints := make([]float64, cfg.NumApps)
	for i := range setpoints {
		setpoints[i] = cfg.Setpoint
	}
	lastChange := make([]int, cfg.NumApps)
	for k, rec := range recs {
		out.out.addPeriod(rec, cfg.Period, setpoints, k, lastChange)
		out.hashes = append(out.hashes, periodHash(rec, out.out.energyWh))
	}
	return out, nil
}

// history reads the last n period records through the server's /history
// route, in process.
func history(h http.Handler, n int) ([]testbed.PeriodRecord, error) {
	if n == 0 {
		return nil, nil
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/history?n="+strconv.Itoa(n), nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /history: status %d", rec.Code)
	}
	var out []testbed.PeriodRecord
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		return nil, fmt.Errorf("decoding /history: %w", err)
	}
	if len(out) != n {
		return nil, fmt.Errorf("GET /history?n=%d returned %d records", n, len(out))
	}
	return out, nil
}

// load is serve-live's open-loop traffic: the given number of dashboard
// viewers, each refreshing once a second with their phases spread evenly,
// so one refresh is due every 1/viewers seconds. It sends over one
// keep-alive connection from one goroutine; its results are read after
// run returns.
type load struct {
	clock  func() float64
	client *http.Client
	base   string
	rate   float64 // refreshes per second
	tk     *telemetry.Track
	quit   chan struct{} // closed to stop run

	routeMS           [][]float64 // per route: ms from sending the request to the end of its response
	bytes             []int64     // per route: response body bytes
	refreshMS         []float64   // ms from a refresh's due time to the end of its last response
	lateMS            []float64   // ms each refresh started after it was due
	attempted, failed int
	problems          []string
}

func newLoad(r *run, base string) *load {
	return &load{
		clock: r.clock,
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   time.Duration(requestDeadline * float64(time.Second)),
		},
		base:    base,
		rate:    float64(r.size.viewers),
		tk:      r.tracer.Track("load"),
		quit:    make(chan struct{}),
		routeMS: make([][]float64, len(routes)),
		bytes:   make([]int64, len(routes)),
	}
}

// run starts refresh i at start + i/rate until quit is closed.
func (l *load) run(start float64) {
	for i := 0; ; i++ {
		select {
		case <-l.quit:
			return
		default:
		}
		due := start + float64(i)/l.rate
		if wait := due - l.clock(); wait > 0 {
			time.Sleep(time.Duration(wait * float64(time.Second)))
		}
		l.refresh(due)
	}
}

// refresh fetches the dashboard's routes one after another, as the
// dashboard does. Each request is an operation, and so is the refresh as
// a whole, which fails when it ends more than requestDeadline after it
// was due.
func (l *load) refresh(due float64) {
	l.lateMS = append(l.lateMS, 1000*(l.clock()-due))
	for i, rt := range routes {
		sp := l.tk.Start("http." + rt.name)
		t0 := l.clock()
		n, err := l.get(l.base + rt.target)
		l.routeMS[i] = append(l.routeMS[i], 1000*(l.clock()-t0))
		sp.End()
		l.bytes[i] += n
		l.attempted++
		if err != nil {
			l.failed++
			l.problems = append(l.problems, fmt.Sprintf("GET %s: %v", rt.target, err))
		}
	}
	lat := l.clock() - due
	l.refreshMS = append(l.refreshMS, 1000*lat)
	l.attempted++
	if lat > requestDeadline {
		l.failed++
		l.problems = append(l.problems, fmt.Sprintf("a refresh took %.3f s from its due time", lat))
	}
}

// get sends one GET and reads the whole response body.
func (l *load) get(url string) (int64, error) {
	resp, err := l.client.Get(url)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(io.Discard, resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err == nil && resp.StatusCode/100 != 2 {
		err = fmt.Errorf("status %d", resp.StatusCode)
	}
	return n, err
}

// serveLayers turns the traced serve-live run into per-layer metrics.
// The traced run reads no allocation counts while the load runs, because
// each read stops the world and would delay the requests in flight.
func (r *run) serveLayers(lay *serveTally, l *load, plainMS []float64, unloadedAllocs float64) error {
	step, err := quantile(spanSeconds(r.tracer.Snapshot(), "serve.step"), 0.5)
	if err != nil {
		return fmt.Errorf("serve step median: %w", err)
	}
	r.layer["serve.step_ms"] = 1e3 * step
	picks := []pick{
		{"serve.refresh_p50_ms", l.refreshMS, 0.5},
		{"serve.refresh_p90_ms", l.refreshMS, 0.9},
		{"load.late_p90_ms", l.lateMS, 0.9},
	}
	for i, rt := range routes {
		picks = append(picks,
			pick{"serve.route_p50_ms." + rt.name, l.routeMS[i], 0.5},
			pick{"serve.route_p90_ms." + rt.name, l.routeMS[i], 0.9})
		r.layer["serve.route_bytes."+rt.name] = float64(l.bytes[i]) / float64(len(l.routeMS[i]))
	}
	if err := quantiles(r.layer, picks...); err != nil {
		return err
	}
	unloaded, err := quantile(r.refSteps, 0.5)
	if err != nil {
		return fmt.Errorf("unloaded step median: %w", err)
	}
	plain, err := quantile(plainMS, 0.5)
	if err != nil {
		return fmt.Errorf("plain period median: %w", err)
	}
	r.layer["serve.observer_overhead"] = unloaded / plain
	r.layer["serve.allocs_per_step"] = unloadedAllocs
	r.layer["setup.testbed_new_s"] = stats.Median(lay.testbedNew)
	r.layer["setup.serve_new_s"] = stats.Median(lay.serve)
	return nil
}
