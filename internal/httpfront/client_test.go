package httpfront

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"mega/internal/megaerr"
	"mega/internal/metrics"
	"mega/internal/serve"
	"mega/internal/testutil"
)

// newTestClient builds a Client against base with an instantaneous,
// recording sleep and identity jitter, so retry tests are deterministic
// and fast.
func newTestClient(t *testing.T, base string, mut func(*ClientConfig)) (*Client, *[]time.Duration) {
	t.Helper()
	cfg := ClientConfig{BaseURL: base, Metrics: metrics.New()}
	if mut != nil {
		mut(&cfg)
	}
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var slept []time.Duration
	c.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return ctx.Err()
	}
	c.jitter = func(d time.Duration) time.Duration { return d }
	t.Cleanup(c.Close)
	return c, &slept
}

func TestClientConfigValidation(t *testing.T) {
	if _, err := NewClient(ClientConfig{}); !errors.Is(err, megaerr.ErrInvalidInput) {
		t.Errorf("empty config = %v, want ErrInvalidInput", err)
	}
	if _, err := NewClient(ClientConfig{BaseURL: "http://x", BaseBackoff: -1}); !errors.Is(err, megaerr.ErrInvalidInput) {
		t.Errorf("negative backoff = %v, want ErrInvalidInput", err)
	}
}

func TestClientRetriesOverloadThenSucceeds(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := hits.Add(1)
		if n <= 2 {
			w.Header().Set("Retry-After", "2")
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: wireError{
				Kind: kindOverload, Message: "busy", Capacity: 1, Queued: 1, RetryAfterMs: 2000,
			}})
			return
		}
		writeJSON(w, http.StatusOK, queryResponse{
			Snapshots: 1, ValuesB64: encodeValues([][]float64{{1, math.Inf(1)}}),
			Report: Report{Engine: "sequential", Attempts: 1},
		})
	}))
	defer ts.Close()

	c, slept := newTestClient(t, ts.URL+"/", nil) // trailing slash must be tolerated
	res, err := c.Query(context.Background(), QuerySpec{Algo: "BFS"})
	if err != nil {
		t.Fatalf("Query = %v", err)
	}
	if hits.Load() != 3 {
		t.Errorf("attempts = %d, want 3", hits.Load())
	}
	if len(*slept) != 2 {
		t.Fatalf("backoffs = %v, want 2", *slept)
	}
	// The server's 2s Retry-After outranks the 100ms/200ms exponential
	// base but stays under the 5s cap.
	for i, d := range *slept {
		if d != 2*time.Second {
			t.Errorf("backoff %d = %s, want 2s (Retry-After honored)", i, d)
		}
	}
	if math.Float64bits(res.Values[0][1]) != math.Float64bits(math.Inf(1)) {
		t.Errorf("values = %v, want +Inf preserved", res.Values)
	}
}

func TestClientRetries503Draining(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: wireError{
				Kind: kindDraining, Message: "draining", Reason: "service draining",
			}})
			return
		}
		writeJSON(w, http.StatusOK, queryResponse{Snapshots: 0, ValuesB64: []string{}})
	}))
	defer ts.Close()
	c, _ := newTestClient(t, ts.URL, nil)
	if _, err := c.Query(context.Background(), QuerySpec{Algo: "BFS"}); err != nil {
		t.Fatalf("Query = %v", err)
	}
	if hits.Load() != 2 {
		t.Errorf("attempts = %d, want 2 (503 retried)", hits.Load())
	}
}

func TestClientDoesNotRetryNonRetryable(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	cases := []struct {
		name     string
		status   int
		kind     string
		sentinel error
	}{
		{"invalid", http.StatusBadRequest, kindInvalid, megaerr.ErrInvalidInput},
		{"divergence", http.StatusUnprocessableEntity, kindDivergence, megaerr.ErrDivergence},
		{"deadline", http.StatusGatewayTimeout, kindDeadline, megaerr.ErrCanceled},
		{"transient-500", http.StatusInternalServerError, kindTransient, megaerr.ErrTransient},
		{"audit", http.StatusInternalServerError, kindAudit, megaerr.ErrAudit},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var hits atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				writeJSON(w, tc.status, errorBody{Error: wireError{Kind: tc.kind, Message: tc.name}})
			}))
			defer ts.Close()
			c, slept := newTestClient(t, ts.URL, nil)
			_, err := c.Query(context.Background(), QuerySpec{Algo: "BFS"})
			if !errors.Is(err, tc.sentinel) {
				t.Errorf("err = %v, want %v", err, tc.sentinel)
			}
			if hits.Load() != 1 || len(*slept) != 0 {
				t.Errorf("attempts = %d, backoffs = %v; non-retryable classes must not retry",
					hits.Load(), *slept)
			}
		})
	}
}

func TestClientRetriesExhaustReturnTypedError(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: wireError{
			Kind: kindOverload, Message: "still busy", Capacity: 2, Queued: 9, RetryAfterMs: 50,
		}})
	}))
	defer ts.Close()
	c, _ := newTestClient(t, ts.URL, func(cfg *ClientConfig) { cfg.MaxRetries = 2 })
	_, err := c.Query(context.Background(), QuerySpec{Algo: "BFS"})
	if hits.Load() != 3 {
		t.Errorf("attempts = %d, want 3 (1 + 2 retries)", hits.Load())
	}
	var oe *megaerr.OverloadError
	if !errors.As(err, &oe) || oe.Capacity != 2 || oe.Queued != 9 {
		t.Fatalf("err = %v, want *OverloadError with original fields", err)
	}
	if !errors.Is(err, megaerr.ErrOverload) {
		t.Error("exhausted error does not match ErrOverload")
	}
}

func TestClientRetriesConnectionFailure(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	// A server that is immediately closed leaves a refused port.
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()
	c, slept := newTestClient(t, url, func(cfg *ClientConfig) { cfg.MaxRetries = 2 })
	_, err := c.Query(context.Background(), QuerySpec{Algo: "BFS"})
	if !errors.Is(err, megaerr.ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient (connection refused)", err)
	}
	if len(*slept) != 2 {
		t.Errorf("backoffs = %v, want 2 (connection failures retried)", *slept)
	}
}

func TestClientBackoffExponentialAndCapped(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		// No Retry-After and no body hint: pure client-side backoff.
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: wireError{Kind: kindOverload, Message: "busy"}})
	}))
	defer ts.Close()
	c, slept := newTestClient(t, ts.URL, func(cfg *ClientConfig) {
		cfg.MaxRetries = 4
		cfg.BaseBackoff = 100 * time.Millisecond
		cfg.MaxBackoff = 300 * time.Millisecond
	})
	c.Query(context.Background(), QuerySpec{Algo: "BFS"})
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond, 300 * time.Millisecond}
	if len(*slept) != len(want) {
		t.Fatalf("backoffs = %v, want %v", *slept, want)
	}
	for i := range want {
		if (*slept)[i] != want[i] {
			t.Errorf("backoff %d = %s, want %s", i, (*slept)[i], want[i])
		}
	}
}

func TestClientContextCancellationIsNotRetried(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	block := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-block:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	defer close(block) // LIFO: unblock the handler before ts.Close waits on it
	c, slept := newTestClient(t, ts.URL, nil)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err := c.Query(ctx, QuerySpec{Algo: "BFS"})
	if !errors.Is(err, megaerr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled sentinels", err)
	}
	if errors.Is(err, megaerr.ErrTransient) {
		t.Error("caller cancellation misclassified as transient (would retry)")
	}
	if len(*slept) != 0 {
		t.Errorf("backoffs = %v, want none", *slept)
	}
}

func TestClientDeadlineCutsBackoffShort(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: wireError{
			Kind: kindOverload, Message: "busy", RetryAfterMs: 60_000,
		}})
	}))
	defer ts.Close()
	c, _ := newTestClient(t, ts.URL, func(cfg *ClientConfig) { cfg.MaxBackoff = time.Minute })
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Query(ctx, QuerySpec{Algo: "BFS"})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Query blocked %s; the deadline check must fail fast", elapsed)
	}
	// The typed overload error from the last attempt beats a bare ctx error.
	if !errors.Is(err, megaerr.ErrOverload) {
		t.Errorf("err = %v, want the last attempt's ErrOverload", err)
	}
}

func TestClientDecodesBodylessErrors(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// An intermediary-style plain-text 429 with only the header hint.
		w.Header().Set("Retry-After", "3")
		http.Error(w, "too many requests", http.StatusTooManyRequests)
	}))
	defer ts.Close()
	c, _ := newTestClient(t, ts.URL, func(cfg *ClientConfig) { cfg.MaxRetries = -1 })
	_, err := c.Query(context.Background(), QuerySpec{Algo: "BFS"})
	var oe *megaerr.OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v, want fallback *OverloadError", err)
	}
	if oe.RetryAfter != 3*time.Second {
		t.Errorf("RetryAfter = %s, want 3s from the header", oe.RetryAfter)
	}
}

func TestClientAuxEndpointsAgainstRealServer(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	srv, ts := newTestFront(t, nil, nil, nil)
	c, _ := newTestClient(t, ts.URL, nil)
	ctx := context.Background()

	if !c.Healthy(ctx) {
		t.Error("Healthy = false against a live server")
	}
	if !c.Ready(ctx) {
		t.Error("Ready = false against a serving server")
	}
	if _, err := c.Query(ctx, QuerySpec{Algo: "BFS", Source: 1}); err != nil {
		t.Fatalf("Query = %v", err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats = %v", err)
	}
	if st.State != "serving" || st.Admitted < 1 {
		t.Errorf("stats = %+v", st.Stats)
	}
	snap, err := c.MetricsSnapshot(ctx)
	if err != nil {
		t.Fatalf("MetricsSnapshot = %v", err)
	}
	raw, _ := json.Marshal(snap)
	if err := metrics.ValidateSnapshotJSON(raw, "http_requests"); err != nil {
		t.Errorf("snapshot: %v", err)
	}

	srv.draining.Store(true)
	if c.Ready(ctx) {
		t.Error("Ready = true while draining")
	}
	if !c.Healthy(ctx) {
		t.Error("Healthy must stay true while draining")
	}
	srv.draining.Store(false)
}

// TestClientSentinelRoundTripEndToEnd drives every failure class through
// a real Server + Client pair over loopback HTTP and asserts the
// ISSUE-level acceptance contract: errors.Is(clientErr, sentinel) holds
// for the exact error the in-process Submit would have returned.
func TestClientSentinelRoundTripEndToEnd(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	_, ts := newTestFront(t, nil, nil, nil)
	c, _ := newTestClient(t, ts.URL, func(cfg *ClientConfig) { cfg.MaxRetries = -1 })
	ctx := context.Background()

	cases := []struct {
		name      string
		spec      QuerySpec
		sentinels []error
	}{
		{"invalid", QuerySpec{Algo: "nope"}, []error{megaerr.ErrInvalidInput}},
		{"divergence", QuerySpec{Algo: "BFS", Label: "fail:divergence"}, []error{megaerr.ErrDivergence}},
		{"transient", QuerySpec{Algo: "BFS", Label: "fail:transient"}, []error{megaerr.ErrTransient}},
		{"checkpoint", QuerySpec{Algo: "BFS", Label: "fail:checkpoint"}, []error{megaerr.ErrCheckpoint}},
		{"audit", QuerySpec{Algo: "BFS", Label: "fail:audit"}, []error{megaerr.ErrAudit}},
		{"deadline", QuerySpec{Algo: "BFS", Label: "fail:block", Deadline: Duration(20 * time.Millisecond)},
			[]error{megaerr.ErrCanceled, context.DeadlineExceeded}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Query(ctx, tc.spec)
			if err == nil {
				t.Fatal("Query succeeded, want typed failure")
			}
			for _, s := range tc.sentinels {
				if !errors.Is(err, s) {
					t.Errorf("err %q does not match %v", err.Error(), s)
				}
			}
		})
	}

	// The panic class round-trips with errors.As field fidelity.
	_, err := c.Query(ctx, QuerySpec{Algo: "BFS", Label: "fail:panic"})
	var wp *megaerr.WorkerPanicError
	if !errors.As(err, &wp) {
		t.Fatalf("panic err = %v, want *WorkerPanicError", err)
	}
}

// Guard: the stub service used across these tests must remain compatible
// with the real serve.RunFunc contract.
var _ serve.RunFunc = labelRun

// TestRetryAfterHeaderForms pins both RFC 7231 Retry-After forms:
// delay-seconds and HTTP-date, including the explicit-zero case that
// means "retry immediately" rather than "no hint".
func TestRetryAfterHeaderForms(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		header string
		wantD  time.Duration
		wantOK bool
	}{
		{"5", 5 * time.Second, true},
		{"  5  ", 5 * time.Second, true},
		{"0", 0, true}, // explicit retry-now, not "no hint"
		{"-3", 0, false},
		{now.Add(3 * time.Second).Format(http.TimeFormat), 3 * time.Second, true},
		{now.Add(-time.Minute).Format(http.TimeFormat), 0, true}, // past date: retry now
		{"soon", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		d, ok := retryAfterHeader(c.header, now)
		if d != c.wantD || ok != c.wantOK {
			t.Errorf("retryAfterHeader(%q) = (%v, %v), want (%v, %v)",
				c.header, d, ok, c.wantD, c.wantOK)
		}
	}
}

// TestClientRetryAfterHTTPDate checks the client honors the HTTP-date
// form of Retry-After end to end: the wait is raised to the date delta.
func TestClientRetryAfterHTTPDate(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", time.Now().Add(10*time.Second).UTC().Format(http.TimeFormat))
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: wireError{
				Kind: kindOverload, Message: "busy", Capacity: 1, Queued: 1,
			}})
			return
		}
		writeJSON(w, http.StatusOK, queryResponse{
			Snapshots: 1, ValuesB64: encodeValues([][]float64{{1}}),
			Report: Report{Engine: "sequential", Attempts: 1},
		})
	}))
	defer ts.Close()

	c, slept := newTestClient(t, ts.URL, func(cfg *ClientConfig) {
		cfg.MaxBackoff = time.Minute // the 10s date delta must not be capped away
	})
	if _, err := c.Query(context.Background(), QuerySpec{Algo: "BFS"}); err != nil {
		t.Fatalf("Query = %v", err)
	}
	if len(*slept) != 1 {
		t.Fatalf("backoffs = %v, want 1", *slept)
	}
	// The delta is measured against the client's own clock, so allow the
	// second or so of slack HTTP-date resolution costs.
	if d := (*slept)[0]; d < 8*time.Second || d > 10*time.Second {
		t.Errorf("backoff = %s, want ~10s from the HTTP-date header", d)
	}
}

// TestClientRetryAfterZeroSkipsBackoff checks "Retry-After: 0" means
// retry immediately: the attempt budget still applies but no sleep runs.
func TestClientRetryAfterZeroSkipsBackoff(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: wireError{
				Kind: kindOverload, Message: "busy", Capacity: 1, Queued: 0,
			}})
			return
		}
		writeJSON(w, http.StatusOK, queryResponse{
			Snapshots: 1, ValuesB64: encodeValues([][]float64{{1}}),
			Report: Report{Engine: "sequential", Attempts: 1},
		})
	}))
	defer ts.Close()

	c, slept := newTestClient(t, ts.URL, nil)
	if _, err := c.Query(context.Background(), QuerySpec{Algo: "BFS"}); err != nil {
		t.Fatalf("Query = %v", err)
	}
	if hits.Load() != 3 {
		t.Errorf("attempts = %d, want 3 (retries still happen)", hits.Load())
	}
	if len(*slept) != 0 {
		t.Errorf("backoffs = %v, want none (Retry-After: 0 skips the sleep)", *slept)
	}
}

// TestClientJitterSeedsDecorrelated is the regression for the fixed
// jitter seed: clients created back-to-back must not draw identical
// jitter sequences, or synchronized callers retry in lockstep waves.
func TestClientJitterSeedsDecorrelated(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	a, err := NewClient(ClientConfig{BaseURL: "http://localhost:0", Metrics: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewClient(ClientConfig{BaseURL: "http://localhost:0", Metrics: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	same := true
	for i := 0; i < 8; i++ {
		da, db := a.jitter(time.Second), b.jitter(time.Second)
		if da < time.Second/2 || da >= time.Second {
			t.Fatalf("jitter %s outside the half-jitter range [500ms, 1s)", da)
		}
		if da != db {
			same = false
		}
	}
	if same {
		t.Fatal("two clients drew 8 identical jitters — the RNG seeds are correlated")
	}
}

// TestClientReadsSuccessBodyFraming covers both ways a success body can
// be framed — a declared Content-Length, which the server always sends,
// and chunked transfer without one — plus a declared length past the
// client's limit, refused as invalid before any of it is read.
func TestClientReadsSuccessBodyFraming(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	vals := [][]float64{{1, math.Inf(1)}, {}, {math.Copysign(0, -1)}}
	body := appendQueryResponse(nil, vals, Report{Engine: "sequential", Attempts: 1}, "r-1")
	handlers := map[string]http.HandlerFunc{
		"content-length": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.Write(body)
		},
		"chunked": func(w http.ResponseWriter, r *http.Request) {
			w.Write(body[:len(body)/2])
			w.(http.Flusher).Flush()
			w.Write(body[len(body)/2:])
		},
	}
	for name, h := range handlers {
		ts := httptest.NewServer(h)
		c, _ := newTestClient(t, ts.URL, nil)
		res, err := c.Query(context.Background(), QuerySpec{Algo: "BFS"})
		if err != nil {
			t.Fatalf("%s: Query = %v", name, err)
		}
		requireSameBits(t, res.Values, vals)
		if res.RequestID != "r-1" || res.Report.Engine != "sequential" {
			t.Errorf("%s: result = %+v", name, res)
		}
		c.Close()
		ts.Close()
	}

	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(maxQueryBodyBytes+1))
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	c, _ := newTestClient(t, ts.URL, nil)
	if _, err := c.Query(context.Background(), QuerySpec{Algo: "BFS"}); !errors.Is(err, megaerr.ErrInvalidInput) {
		t.Errorf("oversized Content-Length: Query = %v, want ErrInvalidInput", err)
	}
}
