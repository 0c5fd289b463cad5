package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thorin/internal/driver"
	"thorin/internal/pm"
)

// srvGatePass blocks the pipeline on a test-controlled gate, so admission
// and shutdown tests can hold a compile slot for exactly as long as they
// need. gateStart receives one token when the pass begins; closing
// gateRelease lets every held compile finish.
type srvGatePass struct{}

func (srvGatePass) Name() string { return "srv-gate" }
func (srvGatePass) Run(*pm.Context) (pm.Result, error) {
	gateMu.Lock()
	start, release := gateStart, gateRelease
	gateMu.Unlock()
	if start != nil {
		start <- struct{}{}
	}
	if release != nil {
		<-release
	}
	return pm.Result{}, nil
}

var (
	gateMu      sync.Mutex
	gateStart   chan struct{}
	gateRelease chan struct{}
)

// openGate installs fresh gate channels and returns (start, release).
// start is buffered generously so gated passes never block sending it.
func openGate(t *testing.T) (chan struct{}, chan struct{}) {
	t.Helper()
	start := make(chan struct{}, 64)
	release := make(chan struct{})
	gateMu.Lock()
	gateStart, gateRelease = start, release
	gateMu.Unlock()
	t.Cleanup(func() {
		gateMu.Lock()
		gateStart, gateRelease = nil, nil
		gateMu.Unlock()
	})
	return start, release
}

func init() { pm.Register(srvGatePass{}) }

const gateSpec = "cleanup,srv-gate,cleanup,closure"
const slowSpec = "cleanup,srv-slow,cleanup,closure"

// gateSrc returns a distinct trivial source per index, so concurrent
// requests get distinct cache keys instead of coalescing.
func gateSrc(i int) string {
	return fmt.Sprintf("fn main(n: i64) -> i64 { n + %d }", i)
}

// awaitMetric polls the server's metrics until pred holds or the deadline
// passes.
func awaitMetric(t *testing.T, srv *Server, what string, pred func(Metrics) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if pred(srv.Metrics()) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; metrics: %+v", what, srv.Metrics())
}

// checkPartition asserts the outcome-partition invariant: every request
// the daemon ever began is accounted for by exactly one outcome counter.
func checkPartition(t *testing.T, m Metrics) {
	t.Helper()
	sum := m.OK + m.Errors + m.Sheds + m.Canceled + m.DeadlineExceeded + m.DrainRefused
	if m.Requests != sum {
		t.Errorf("outcome partition broken: requests=%d but ok=%d + errors=%d + sheds=%d + canceled=%d + deadline=%d + drain=%d = %d",
			m.Requests, m.OK, m.Errors, m.Sheds, m.Canceled, m.DeadlineExceeded, m.DrainRefused, sum)
	}
}

// TestShedWhenSaturated: with one compile slot and no queue, a second
// concurrent request is refused with 429 and Retry-After while the first
// compiles, and is counted as a shed.
func TestShedWhenSaturated(t *testing.T) {
	start, release := openGate(t)
	srv, c := startServer(t, Config{MaxInFlight: 1, MaxQueue: -1})

	done := make(chan error, 1)
	go func() {
		_, _, err := c.Compile(&driver.Request{Source: gateSrc(0), Spec: gateSpec})
		done <- err
	}()
	<-start

	_, _, err := c.Compile(&driver.Request{Source: gateSrc(1), Spec: gateSpec})
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusTooManyRequests {
		t.Fatalf("saturated request: err = %v, want HTTP 429", err)
	}
	if re.RetryAfter <= 0 {
		t.Error("shed response carries no Retry-After")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("held compile failed: %v", err)
	}
	m := srv.Metrics()
	if m.Sheds != 1 || m.OK != 1 {
		t.Errorf("sheds=%d ok=%d, want 1 and 1", m.Sheds, m.OK)
	}
	checkPartition(t, m)
}

// TestQueueAbsorbsBurstThenSheds: requests past the in-flight limit park
// in the bounded queue and complete once slots free; requests past the
// queue are shed immediately.
func TestQueueAbsorbsBurstThenSheds(t *testing.T) {
	start, release := openGate(t)
	srv, c := startServer(t, Config{MaxInFlight: 1, MaxQueue: 2, QueueWait: 10 * time.Second})

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.Compile(&driver.Request{Source: gateSrc(i), Spec: gateSpec})
		}(i)
		if i == 0 {
			<-start // the first holds the slot; the rest must queue
		}
	}
	awaitMetric(t, srv, "2 queued requests", func(m Metrics) bool { return m.QueueDepth == 2 })

	// Queue full: the fourth concurrent request sheds without waiting.
	_, _, err := c.Compile(&driver.Request{Source: gateSrc(3), Spec: gateSpec})
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusTooManyRequests {
		t.Fatalf("over-queue request: err = %v, want HTTP 429", err)
	}

	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("queued request %d failed: %v", i, err)
		}
	}
	m := srv.Metrics()
	if m.OK != 3 || m.Sheds != 1 || m.QueueDepth != 0 {
		t.Errorf("ok=%d sheds=%d depth=%d, want 3, 1, 0", m.OK, m.Sheds, m.QueueDepth)
	}
	checkPartition(t, m)
}

// TestQueueWaitBoundSheds: a queued request that cannot get a slot within
// QueueWait is shed rather than parked indefinitely.
func TestQueueWaitBoundSheds(t *testing.T) {
	start, release := openGate(t)
	srv, c := startServer(t, Config{MaxInFlight: 1, MaxQueue: 2, QueueWait: 30 * time.Millisecond})
	defer close(release)

	done := make(chan error, 1)
	go func() {
		_, _, err := c.Compile(&driver.Request{Source: gateSrc(0), Spec: gateSpec})
		done <- err
	}()
	<-start

	began := time.Now()
	_, _, err := c.Compile(&driver.Request{Source: gateSrc(1), Spec: gateSpec})
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusTooManyRequests {
		t.Fatalf("queued request: err = %v, want HTTP 429 after the wait bound", err)
	}
	if waited := time.Since(began); waited < 25*time.Millisecond {
		t.Errorf("shed after %v, before the 30ms queue wait elapsed", waited)
	}
	if m := srv.Metrics(); m.Sheds != 1 {
		t.Errorf("sheds = %d, want 1", m.Sheds)
	}
}

// TestDeadlineExceededAnswers504: a request whose deadline_ms expires
// mid-pipeline stops at the next pass boundary and answers 504, counted
// under deadline_exceeded — not errors.
func TestDeadlineExceededAnswers504(t *testing.T) {
	srv, c := startServer(t, Config{})
	_, _, err := c.Compile(&driver.Request{Source: gateSrc(0), Spec: slowSpec, DeadlineMs: 50})
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusGatewayTimeout {
		t.Fatalf("err = %v, want HTTP 504", err)
	}
	m := srv.Metrics()
	if m.DeadlineExceeded != 1 || m.Errors != 0 {
		t.Errorf("deadline_exceeded=%d errors=%d, want 1 and 0", m.DeadlineExceeded, m.Errors)
	}
	checkPartition(t, m)
}

// TestClientDisconnectCancelsCompile: when the client goes away
// mid-compile, the server stops the pipeline at the next boundary and
// counts a cancellation — the compile does not run to completion for
// nobody.
func TestClientDisconnectCancelsCompile(t *testing.T) {
	srv, c := startServer(t, Config{})
	impatient := &Client{Addr: c.Addr, HTTP: &http.Client{Timeout: 50 * time.Millisecond}}
	_, _, err := impatient.Compile(&driver.Request{Source: gateSrc(0), Spec: slowSpec})
	if err == nil {
		t.Fatal("expected the client-side timeout to surface")
	}
	awaitMetric(t, srv, "canceled request", func(m Metrics) bool { return m.Canceled == 1 })
	m := srv.Metrics()
	if m.Errors != 0 {
		t.Errorf("errors = %d; a client disconnect must not count as a compile error", m.Errors)
	}
	checkPartition(t, m)
}

// TestRetryAfterShedSucceeds: a retrying client that is shed keeps backing
// off and lands the compile once the slot frees; the server observes the
// re-sends via the attempt header.
func TestRetryAfterShedSucceeds(t *testing.T) {
	start, release := openGate(t)
	srv, c := startServer(t, Config{MaxInFlight: 1, MaxQueue: -1})

	held := make(chan error, 1)
	go func() {
		_, _, err := c.Compile(&driver.Request{Source: gateSrc(0), Spec: gateSpec})
		held <- err
	}()
	<-start

	var sheds, retries atomic.Int64
	retrier := &Client{
		Addr:           c.Addr,
		Retries:        20,
		RetryBaseDelay: 10 * time.Millisecond,
		RetryMaxDelay:  50 * time.Millisecond,
		Seed:           42,
		OnRetry: func(attempt int, cause error, sleep time.Duration) {
			retries.Add(1)
			var re *RemoteError
			if errors.As(cause, &re) && re.Status == http.StatusTooManyRequests {
				if sheds.Add(1) == 1 {
					close(release) // free the slot once we know we were shed
				}
			}
		},
	}
	resp, _, err := retrier.Compile(&driver.Request{Source: gateSrc(1), Spec: gateSpec})
	if err != nil {
		t.Fatalf("retrying compile failed: %v", err)
	}
	if resp == nil || resp.Key == "" {
		t.Fatal("retrying compile returned no response")
	}
	if err := <-held; err != nil {
		t.Fatalf("held compile failed: %v", err)
	}
	if sheds.Load() == 0 {
		t.Fatal("the retrier was never shed; the test exercised nothing")
	}
	m := srv.Metrics()
	if m.Sheds != sheds.Load() {
		t.Errorf("server sheds=%d, client observed %d", m.Sheds, sheds.Load())
	}
	if m.RetriesObserved != retries.Load() {
		t.Errorf("server observed %d retries, client performed %d", m.RetriesObserved, retries.Load())
	}
	if m.OK != 2 {
		t.Errorf("ok=%d, want 2: the held compile and the retried one", m.OK)
	}
	checkPartition(t, m)
}

// TestRetryScheduleDeterministic: the same seed reproduces the same
// backoff schedule; every sleep respects the half-jitter envelope.
func TestRetryScheduleDeterministic(t *testing.T) {
	always429 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"full"}`)
	}))
	defer always429.Close()

	schedule := func(seed int64) []time.Duration {
		var sleeps []time.Duration
		c := &Client{
			Addr:           always429.Listener.Addr().String(),
			Retries:        4,
			RetryBaseDelay: time.Microsecond, // measured, not slept-through
			RetryMaxDelay:  16 * time.Microsecond,
			Seed:           seed,
			OnRetry:        func(_ int, _ error, s time.Duration) { sleeps = append(sleeps, s) },
		}
		_, _, err := c.Compile(&driver.Request{Source: gateSrc(0)})
		var re *RemoteError
		if !errors.As(err, &re) || re.Status != http.StatusTooManyRequests {
			t.Fatalf("err = %v, want the final 429", err)
		}
		return sleeps
	}

	a, b := schedule(7), schedule(7)
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("retry counts = %d, %d, want 4 and 4", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("retry %d: seed 7 slept %v then %v; schedule not reproducible", i, a[i], b[i])
		}
		base := time.Microsecond << i
		if base > 16*time.Microsecond {
			base = 16 * time.Microsecond
		}
		if a[i] < base/2 || a[i] > base {
			t.Errorf("retry %d: sleep %v outside half-jitter envelope [%v, %v]", i, a[i], base/2, base)
		}
	}
}

// TestNoRetryOnCompileFailure: a 422 compile failure is final; re-sending
// cannot change it, so the client must not burn its retry budget on it.
func TestNoRetryOnCompileFailure(t *testing.T) {
	_, c := startServer(t, Config{})
	retried := 0
	rc := &Client{Addr: c.Addr, Retries: 5, RetryBaseDelay: time.Millisecond,
		OnRetry: func(int, error, time.Duration) { retried++ }}
	_, _, err := rc.Compile(&driver.Request{Source: fibSrc, Spec: faultySpec})
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusUnprocessableEntity {
		t.Fatalf("err = %v, want HTTP 422", err)
	}
	if retried != 0 {
		t.Errorf("client retried a final compile failure %d times", retried)
	}
}

// TestProbeTimeoutIndependent: Metrics and Healthy answer on their own
// short probe timeout instead of inheriting the 5-minute compile timeout —
// a monitoring poll against a wedged daemon must fail fast.
func TestProbeTimeoutIndependent(t *testing.T) {
	wedged := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(400 * time.Millisecond)
	}))
	defer wedged.Close()
	c := &Client{Addr: wedged.Listener.Addr().String(), ProbeTimeout: 50 * time.Millisecond}

	began := time.Now()
	if c.Healthy() {
		t.Error("Healthy() = true against a wedged daemon")
	}
	if _, err := c.Metrics(); err == nil {
		t.Error("Metrics() succeeded against a wedged daemon")
	}
	if took := time.Since(began); took > 350*time.Millisecond {
		t.Errorf("probes took %v; they inherited a long timeout instead of ProbeTimeout", took)
	}
}

// TestDrainRefusesNewRequests: after Shutdown begins, new /compile
// requests answer 503 and are counted as drain refusals, and /healthz
// flips to draining.
func TestDrainRefusesNewRequests(t *testing.T) {
	s := New(Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("idle shutdown: %v", err)
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, compilePost(t, &driver.Request{Source: fibSrc}))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining /compile = %d, want 503", rec.Code)
	}
	hrec := httptest.NewRecorder()
	s.Handler().ServeHTTP(hrec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if hrec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining /healthz = %d, want 503", hrec.Code)
	}
	m := s.Metrics()
	if m.DrainRefused != 1 {
		t.Errorf("drain_refused = %d, want 1", m.DrainRefused)
	}
	checkPartition(t, m)
}

// TestGracefulShutdownUnderLoad: Shutdown lets the in-flight compile
// finish and return its result, refuses work arriving during the drain,
// and only then returns; the counters reconcile afterwards.
func TestGracefulShutdownUnderLoad(t *testing.T) {
	start, release := openGate(t)
	srv := New(Config{MaxInFlight: 2})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	c := &Client{Addr: l.Addr().String()}

	held := make(chan error, 1)
	go func() {
		_, _, err := c.Compile(&driver.Request{Source: gateSrc(0), Spec: gateSpec})
		held <- err
	}()
	<-start // the compile holds its slot mid-pipeline

	shutDone := make(chan error, 1)
	shutBegan := time.Now()
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- srv.Shutdown(ctx)
	}()
	// Shutdown must block on the in-flight compile, not return early.
	select {
	case err := <-shutDone:
		t.Fatalf("Shutdown returned (%v) while a compile was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	// Work arriving during the drain is refused, not accepted: either 503
	// from the drain gate (handler reached) or a transport error (listener
	// already closed) — never a success.
	if _, _, err := c.Compile(&driver.Request{Source: gateSrc(1), Spec: gateSpec}); err == nil {
		t.Error("a request during drain compiled successfully")
	} else {
		var re *RemoteError
		if errors.As(err, &re) && re.Status != http.StatusServiceUnavailable {
			t.Errorf("drain-time request got HTTP %d, want 503 or a transport error", re.Status)
		}
	}

	close(release)
	if err := <-held; err != nil {
		t.Fatalf("in-flight compile did not finish cleanly across shutdown: %v", err)
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if took := time.Since(shutBegan); took < 100*time.Millisecond {
		t.Errorf("Shutdown returned after %v, before the in-flight compile was released", took)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	m := srv.Metrics()
	if m.OK < 1 || m.InFlight != 0 {
		t.Errorf("ok=%d in_flight=%d after drain, want >=1 and 0", m.OK, m.InFlight)
	}
	checkPartition(t, m)
}

// TestShutdownDrainTimeoutHonored: a drain bounded by a context that
// expires before in-flight work completes returns the context error
// instead of blocking forever.
func TestShutdownDrainTimeoutHonored(t *testing.T) {
	start, release := openGate(t)
	srv := New(Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	c := &Client{Addr: l.Addr().String()}

	held := make(chan error, 1)
	go func() {
		_, _, err := c.Compile(&driver.Request{Source: gateSrc(0), Spec: gateSpec})
		held <- err
	}()
	<-start

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded when the drain bound expires", err)
	}
	close(release)
	<-held // the compile still finishes; only the drain wait gave up
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestHealthzDegradedWhenOverloaded: /healthz reports degraded (but still
// 200 — the daemon is serving) while every slot is taken and requests are
// queued.
func TestHealthzDegradedWhenOverloaded(t *testing.T) {
	start, release := openGate(t)
	srv, c := startServer(t, Config{MaxInFlight: 1, MaxQueue: 4, QueueWait: 10 * time.Second})
	defer close(release)

	go c.Compile(&driver.Request{Source: gateSrc(0), Spec: gateSpec})
	<-start
	go c.Compile(&driver.Request{Source: gateSrc(1), Spec: gateSpec})
	awaitMetric(t, srv, "a queued request", func(m Metrics) bool { return m.QueueDepth == 1 })

	resp, err := http.Get("http://" + c.Addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 64)
	n, _ := resp.Body.Read(buf)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("overloaded /healthz = %d, want 200 (degraded is still serving)", resp.StatusCode)
	}
	if got := string(buf[:n]); got != "degraded: overloaded\n" {
		t.Errorf("overloaded /healthz body = %q, want %q", got, "degraded: overloaded\n")
	}
}
