package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"thorin/internal/backend"
	"thorin/internal/driver"
	"thorin/internal/link"
	"thorin/internal/server"
)

// daemon is an in-process thorind (memory tier only) on a loopback
// listener, with a client that owns its connections.
type daemon struct {
	srv       *server.Server
	done      chan error
	client    *server.Client
	transport *http.Transport
	stopOnce  sync.Once
	stopErr   error
}

func startDaemon(jobs int) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:       server.New(server.Config{DefaultJobs: jobs}),
		done:      make(chan error, 1),
		transport: &http.Transport{MaxIdleConnsPerHost: 8},
	}
	go func() { d.done <- d.srv.Serve(l) }()
	d.client = &server.Client{
		Addr: l.Addr().String(),
		HTTP: &http.Client{Transport: d.transport, Timeout: time.Minute},
	}
	return d, nil
}

// stop drains the daemon and waits for its serve loop to return; later
// calls return the first call's result.
func (d *daemon) stop() error {
	d.stopOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		d.stopErr = d.srv.Shutdown(ctx)
		if err := <-d.done; !errors.Is(err, http.ErrServerClosed) && d.stopErr == nil {
			d.stopErr = err
		}
		d.transport.CloseIdleConnections()
	})
	return d.stopErr
}

// request is one daemon-mix operation.
type request struct {
	kind string // hot, cold, edit or flight
	job  *job
}

func (r *request) wire(jobs int) *driver.Request {
	return &driver.Request{
		Source: r.job.src, Sources: r.job.modules, Link: string(r.job.link),
		Target: string(r.job.target), Jobs: jobs,
	}
}

// editLeaves is the size of the module set daemon-mix edits one leaf of.
const editLeaves = 8

// flightEvery makes every flightEvery-th request of each client a
// coalescing one: all clients send the same never-seen program together.
const flightEvery = 25

// mixPlan is the seeded daemon-mix traffic: the hot set (the 40 suite arms
// at their check sizes, which fit the default 256-entry LRU) and one
// request schedule per client.
type mixPlan struct {
	hot     []job
	base    job // the unedited module set, prefilled with the hot set
	clients [][]request
	flights []*job
}

// mixCounts is daemon-mix's traffic per 48 requests between coalescing
// ones: hot-set repeats (hits), never-repeated fuzz programs (misses that
// Put and evict) and single-leaf edits of the module set (per-module hits
// plus a relink). The mix is synthetic, not drawn from a trace of real
// use. What it must keep is checked on every untraced window (see
// checkWindow): the hot set stays within the LRU, so repeats hit; the cold
// stream overflows it within the window, so eviction runs; and the
// coalescing requests meet in flight.
var mixCounts = []int{35, 10, 3}

// planMix draws perClient requests for each client in the proportions of
// mixCounts and, at every flightEvery-th slot, an identical cold request
// from all clients (single-flight). Every program gets its reference
// outcome here, before anything is timed.
func planMix(seed int64, clients, perClient int) (*mixPlan, error) {
	hot, err := suiteJobs(checkN)
	if err != nil {
		return nil, err
	}
	p := &mixPlan{hot: hot}
	if p.base, err = withOracle(moduleJob(editLeaves, -1, 0, link.Trampoline, backend.VM)); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	target := func() backend.Target { return targets[rng.Intn(len(targets))] }
	flightSeed := seed*10_000_000 + 9_000_000
	for k := 0; k < perClient/flightEvery; k++ {
		j, err := fuzzJob(&flightSeed, target())
		if err != nil {
			return nil, err
		}
		p.flights = append(p.flights, &j)
	}
	for c := 0; c < clients; c++ {
		var reqs []request
		cold := seed*10_000_000 + int64(c)*1_000_000
		kinds := blocks(rng, mixCounts, perClient)
		for i := 0; i < perClient; i++ {
			if i%flightEvery == flightEvery-1 {
				reqs = append(reqs, request{kind: "flight", job: p.flights[i/flightEvery]})
				continue
			}
			var j job
			kind := "cold"
			switch kinds[i-i/flightEvery] {
			case 0:
				reqs = append(reqs, request{kind: "hot", job: &p.hot[rng.Intn(len(p.hot))]})
				continue
			case 1:
				j, err = fuzzJob(&cold, target())
			default:
				mode := link.Trampoline
				if rng.Intn(2) == 0 {
					mode = link.Mangle
				}
				version := c*perClient + i + 1
				j, err = withOracle(moduleJob(editLeaves, rng.Intn(editLeaves), version, mode, target()))
				kind = "edit"
			}
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, request{kind: kind, job: &j})
		}
		p.clients = append(p.clients, reqs)
	}
	return p, nil
}

// prefill starts a daemon and fills its cache with the hot set and the
// unedited module set, returning the hot set's artifacts.
func prefill(p *mixPlan, jobs int, t *tally) (*daemon, []*artifact, error) {
	d, err := startDaemon(jobs)
	if err != nil {
		return nil, nil, err
	}
	arts := make([]*artifact, len(p.hot))
	for i := range p.hot {
		r := request{kind: "hot", job: &p.hot[i]}
		resp, a, err := d.client.Compile(r.wire(jobs))
		t.record(err)
		if err != nil {
			d.stop()
			return nil, nil, fmt.Errorf("prefill %s: %w", r.job.name, err)
		}
		arts[i] = fromDriver(r.job.target, a, resp.Artifact)
	}
	base := request{kind: "edit", job: &p.base}
	if _, _, err := d.client.Compile(base.wire(jobs)); err != nil {
		d.stop()
		return nil, nil, fmt.Errorf("prefill module set: %w", err)
	}
	return d, arts, nil
}

// fromDriver wraps a daemon response's decoded artifact for execution.
func fromDriver(t backend.Target, a *driver.Artifact, raw []byte) *artifact {
	return &artifact{target: t, prog: a.Program, wasm: a.Wasm, encoded: raw}
}

// rendezvous lines the clients up for each coalescing request, so they
// send it together; a client that waits past the window goes alone.
type rendezvous struct {
	mu      sync.Mutex
	clients int
	arrived map[int]int
	ready   map[int]chan struct{}
}

func (r *rendezvous) wait(k int, deadline time.Time) {
	r.mu.Lock()
	ch := r.ready[k]
	if ch == nil {
		ch = make(chan struct{})
		r.ready[k] = ch
	}
	r.arrived[k]++
	if r.arrived[k] == r.clients {
		close(ch)
	}
	r.mu.Unlock()
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case <-ch:
	case <-timer.C:
	}
}

// served is one daemon-mix request as the client saw it.
type served struct {
	rtt     time.Duration
	exec    time.Duration
	target  backend.Target
	miss    bool
	modules []server.ModuleCacheInfo // per-module tiers of a module-set miss
	raw     []byte
	cnt     execCounters
}

// send issues one request and checks the artifact by running it.
func send(d *daemon, r request, jobs int, tr *tracer, op int64) (served, error) {
	root := tr.begin(op, 0, "bench.request")
	defer root.end()
	s := served{target: r.job.target}
	rtt := tr.begin(op, root.id(), "server.rtt")
	t0 := time.Now()
	resp, a, err := d.client.Compile(r.wire(jobs))
	s.rtt = time.Since(t0)
	rtt.end()
	if err != nil {
		return s, fmt.Errorf("%s %s: %w", r.kind, r.job.name, err)
	}
	s.miss, s.modules, s.raw = resp.Cache == "miss", resp.Modules, resp.Artifact
	art := fromDriver(r.job.target, a, resp.Artifact)
	t1 := time.Now()
	s.cnt, err = execute(r.job, art, tr, op, root.id())
	s.exec = time.Since(t1)
	return s, err
}

// loop is one closed-loop client: it sends its schedule in order until the
// schedule ends or the window closes, meeting the other clients at every
// coalescing request. It reports whether the schedule ended first.
func loop(d *daemon, reqs []request, jobs int, rv *rendezvous, deadline time.Time, tr *tracer, lane int64, t *tally, sink func(request, served)) (ranOut bool) {
	for i, r := range reqs {
		if !time.Now().Before(deadline) {
			return false
		}
		if r.kind == "flight" {
			rv.wait(i/flightEvery, deadline)
		}
		s, err := send(d, r, jobs, tr, lane<<32|int64(i+1))
		t.record(err)
		if err == nil {
			sink(r, s)
		}
	}
	return time.Now().Before(deadline)
}

// clientsRun runs every client's loop concurrently and returns the window
// and how many clients ran out of requests before the deadline.
func clientsRun(d *daemon, plan [][]request, jobs int, deadline time.Time, tr *tracer, t *tally, sink func(request, served)) (time.Duration, int) {
	rv := &rendezvous{clients: len(plan), arrived: map[int]int{}, ready: map[int]chan struct{}{}}
	var wg sync.WaitGroup
	var ranOut atomic.Int32
	t0 := time.Now()
	for c, reqs := range plan {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if loop(d, reqs, jobs, rv, deadline, tr, int64(c), t, sink) {
				ranOut.Add(1)
			}
		}()
	}
	wg.Wait()
	return time.Since(t0), int(ranOut.Load())
}

// deltaOf is the change in the daemon's /metrics between two snapshots.
func deltaOf(before, after server.Metrics) serverDelta {
	return serverDelta{
		requests:  after.Requests - before.Requests,
		hits:      after.CacheHits - before.CacheHits,
		compiled:  (after.OK - after.CacheHits) - (before.OK - before.CacheHits),
		coalesced: after.Coalesced - before.Coalesced,
		evictions: after.Cache.Evictions - before.Cache.Evictions,
		sheds:     after.Sheds - before.Sheds,
		compileNs: after.CompileNs - before.CompileNs,
	}
}

// checkWindow fails a daemon-mix window that did not load what the
// workload exists for: eviction (the cold stream must overflow the LRU),
// single-flight (the identical cold requests must coalesce) and traffic
// for the whole window (no client may run out of scheduled requests).
func checkWindow(sd serverDelta, ranOut int) error {
	var errs []error
	if sd.evictions == 0 {
		errs = append(errs, errors.New("no cache eviction in the window: the cold stream did not overflow the LRU"))
	}
	if sd.coalesced == 0 {
		errs = append(errs, errors.New("no coalesced request in the window: single-flight was not exercised"))
	}
	if ranOut > 0 {
		errs = append(errs, fmt.Errorf("%d clients ran out of scheduled requests before the window closed (perClientRate is too low for this machine)", ranOut))
	}
	return errors.Join(errs...)
}

// perClientRate bounds the requests one client can complete per second of
// window; the schedule is sized from it so a client never runs out of
// never-repeated programs inside the window. A client of a 2-vCPU machine
// completes about 340 a second; checkWindow fails a run that runs out.
const perClientRate = 900

// runDaemonMix measures client-side latency and throughput of the mix.
// compile_ms are the latencies of requests that missed (the daemon
// compiled), compile_alloc_mb.mean the Go heap allocated in the window per
// such compile, run_ms the checking executions.
func runDaemonMix(cfg *config, t *tally) (*metricSet, error) {
	plan, err := planMix(cfg.seed, cfg.clients, perClientRate*int(cfg.seconds/time.Second))
	if err != nil {
		return nil, err
	}
	e := newE2E()
	var d *daemon
	var arts []*artifact
	for r := 0; r < setupReps; r++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		var err error
		runtime.GC() // as in suiteSetup
		dur := timed(func() { d, arts, err = prefill(plan, cfg.jobs, t) })
		if err != nil {
			return nil, err
		}
		e.setup = append(e.setup, dur)
	}
	defer d.stop()
	if e.census, err = censusOfHot(arts, t); err != nil {
		return nil, err
	}

	var mu sync.Mutex
	meter := newAllocMeter()
	b0, _ := meter.read()
	before := d.srv.Metrics()
	deadline := time.Now().Add(cfg.seconds)
	var ranOut int
	e.window, ranOut = clientsRun(d, plan.clients, cfg.jobs, deadline, nil, t, func(r request, s served) {
		mu.Lock()
		defer mu.Unlock()
		e.req.add(s.rtt)
		e.requests++
		if s.miss {
			e.compile.add(s.rtt)
		}
		e.execs[s.target]++
		if s.target == backend.VM {
			e.runVM = append(e.runVM, ms(s.exec))
		} else {
			e.runWas = append(e.runWas, ms(s.exec))
		}
	})
	b1, _ := meter.read()
	sd := deltaOf(before, d.srv.Metrics())
	fmt.Printf("daemon window: %d requests, %d cache hits, %d compiled, %d coalesced, %d evictions, %d sheds\n",
		sd.requests, sd.hits, sd.compiled, sd.coalesced, sd.evictions, sd.sheds)
	if err := checkWindow(sd, ranOut); err != nil {
		d.stop()
		return nil, fmt.Errorf("daemon-mix window does not load what the workload measures: %w", err)
	}
	if len(e.compile) > 0 {
		e.compileAllocs = []float64{float64(b1-b0) / (1 << 20) / float64(len(e.compile))}
	}
	return e.metrics(), d.stop()
}

// censusOfHot takes the census from the daemon's artifacts for the suite
// arms: the hot set holds them at check sizes, so they are re-bound to the
// DefaultN references first.
func censusOfHot(arts []*artifact, t *tally) (census, error) {
	arms, err := suiteJobs(defaultN)
	if err != nil {
		return census{}, err
	}
	return takeCensus(arms, arts, t)
}

// traceRequests is the fixed schedule length per client of a traced run.
const traceRequests = 300

// traceDaemonMix sends the first traceRequests of each client's schedule
// to a prefilled daemon untraced, then to a fresh prefilled daemon traced.
// The daemon compiles out of sight of the benchmark, so afterwards every
// request that missed is compiled again in process through the layer chain,
// and every artifact served is decoded and re-encoded, to break the
// daemon's work down per layer.
func traceDaemonMix(cfg *config, t *tally) (*metricSet, *tracer, error) {
	plan, err := planMix(cfg.seed, cfg.clients, traceRequests)
	if err != nil {
		return nil, nil, err
	}
	d, arts, err := prefill(plan, cfg.jobs, t)
	if err != nil {
		return nil, nil, err
	}
	if _, err := censusOfHot(arts, t); err != nil {
		d.stop()
		return nil, nil, err
	}
	far := time.Now().Add(time.Hour)
	untraced, _ := clientsRun(d, plan.clients, cfg.jobs, far, nil, t, func(request, served) {})
	if err := d.stop(); err != nil {
		return nil, nil, err
	}
	if d, _, err = prefill(plan, cfg.jobs, t); err != nil {
		return nil, nil, err
	}
	defer d.stop()

	acc := &layerAcc{}
	var mu sync.Mutex
	var missed []request
	tiers := map[*job][]server.ModuleCacheInfo{}
	var raws [][]byte
	before := d.srv.Metrics()
	tr := newTracer()
	tracedTime, _ := clientsRun(d, plan.clients, cfg.jobs, far, tr, t, func(r request, s served) {
		mu.Lock()
		defer mu.Unlock()
		if s.miss {
			acc.rttMiss = append(acc.rttMiss, ms(s.rtt))
			missed = append(missed, r)
			tiers[r.job] = s.modules
		} else {
			acc.rttHit = append(acc.rttHit, ms(s.rtt))
		}
		raws = append(raws, s.raw)
		acc.addExec(s.target, s.cnt)
	})
	sd := deltaOf(before, d.srv.Metrics())

	// Replays run after the window on one goroutine, in schedule order, so
	// their counters depend on the seed alone. A module set is replayed as
	// the daemon served it: only the modules it compiled are compiled, the
	// rest are decoded from module artifacts built here, outside any span.
	op := int64(1) << 40
	built := moduleArtifacts{}
	for _, r := range orderedMisses(plan, missed) {
		op++
		var cached map[int][]byte
		if r.job.modules != nil {
			if cached, err = built.cachedBy(r.job, tiers[r.job], cfg.jobs); err != nil {
				t.record(err)
				continue
			}
		}
		root := tr.begin(op, 0, "bench.replay")
		var a *artifact
		var cnt compileCounters
		if r.job.modules != nil {
			a, cnt, err = compileFromModuleCache(r.job, cached, cfg.jobs, tr, op, root.id())
		} else {
			a, cnt, err = compile(r.job, cfg.jobs, tr, op, root.id())
		}
		root.end()
		t.record(err)
		if err == nil {
			acc.addCompile(r.job, cnt, a)
		}
	}
	for _, raw := range raws {
		op++
		var a *driver.Artifact
		tr.call(op, 0, "driver.artifact_decode", func() { a, err = driver.DecodeArtifact(raw) })
		if err == nil {
			tr.call(op, 0, "driver.artifact_encode", func() { _, err = a.Encode() })
		}
		t.record(err)
		acc.artifacts++
		acc.artBytes += len(raw)
	}
	return layerMetrics(tr, acc, sd, tracedTime-untraced, untraced), tr, nil
}

// moduleArtifacts holds encoded module artifacts by target and source.
type moduleArtifacts map[string][]byte

// cachedBy returns, by module index, the artifacts of the modules of j that
// the daemon took from its per-module cache rather than compiled (tier
// other than "miss"), building each once, untraced.
func (b moduleArtifacts) cachedBy(j *job, tiers []server.ModuleCacheInfo, jobs int) (map[int][]byte, error) {
	if len(tiers) != len(j.modules) {
		return nil, fmt.Errorf("%s: the daemon reported %d module tiers for %d modules", j.name, len(tiers), len(j.modules))
	}
	var units []*driver.ModuleUnit
	cached := map[int][]byte{}
	for i, tier := range tiers {
		if tier.Cache == "miss" {
			continue
		}
		key := string(j.target) + "\x00" + j.modules[i]
		if b[key] == nil {
			if units == nil {
				var err error
				if units, err = driver.ParseModules(j.modules); err != nil {
					return nil, err
				}
			}
			m, err := driver.CompileModuleUnit(units[i], spec, driver.Config{Jobs: jobs, Target: j.target})
			if err != nil {
				return nil, err
			}
			if b[key], err = driver.NewModuleArtifact(m, driver.ModuleSpec(spec)).Encode(); err != nil {
				return nil, err
			}
		}
		cached[i] = b[key]
	}
	return cached, nil
}

// orderedMisses returns the distinct programs the daemon compiled, in
// schedule order (client by client), independent of which client's
// request happened to miss first.
func orderedMisses(p *mixPlan, missed []request) []request {
	seen := map[*job]bool{}
	for _, r := range missed {
		seen[r.job] = true
	}
	var out []request
	for _, reqs := range p.clients {
		for _, r := range reqs {
			if seen[r.job] {
				out = append(out, r)
				delete(seen, r.job)
			}
		}
	}
	return out
}
