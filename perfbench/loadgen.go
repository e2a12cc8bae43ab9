package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mega/internal/httpfront"
)

// hardDeadline bounds one request from its due time; a request past it
// fails with a deadline error and counts in the error ratio.
const hardDeadline = 10 * time.Second

// pair is one query the load generator may send.
type pair struct {
	algo   string
	source int64
	tenant string // X-Mega-Tenant; empty = default tenant
	engine string // "" (sequential) or "par"
}

// key names the pair's result: values depend on algorithm and source only.
func (p pair) key() string { return p.algo + "/" + strconv.FormatInt(p.source, 10) }

// request is one scheduled open-loop arrival.
type request struct {
	pair pair
	due  time.Duration // offset from the phase start
}

// outcome is one request's fate as the client saw it.
type outcome struct {
	pair   pair
	due    time.Time // when the request was due to be sent
	sent   time.Time // when the generator got round to sending it
	qStart time.Time // just before Client.Query
	end    time.Time
	err    error
	rep    httpfront.Report
	id     string
	hash   uint64 // hash of the returned values' Float64bits
	wire   int64  // report and request-id bytes inside the response body
}

// latency is the time from the due time to the response; a failed
// request counts as missing every limit.
func (o *outcome) latency() time.Duration {
	if o.err != nil {
		return hardDeadline
	}
	return o.end.Sub(o.due)
}

// ran reports whether the response came from a real engine run of this
// request (not a cache hit, a coalesced or a batched answer).
func (o *outcome) ran() bool { return o.err == nil && o.rep.Cache == "" }

// hashValues folds every snapshot's Float64bits into one FNV-1a hash.
func hashValues(vals [][]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, snap := range vals {
		binary.LittleEndian.PutUint64(b[:], uint64(len(snap)))
		h.Write(b[:])
		for _, v := range snap {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// countingTransport counts response body bytes the client reads.
type countingTransport struct {
	base http.RoundTripper
	n    *atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if resp != nil && resp.Body != nil {
		resp.Body = &countingBody{resp.Body, t.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// loadgen sends queries through one httpfront.Client with retries off,
// over one transport capped at conns connections.
type loadgen struct {
	client *httpfront.Client
	body   atomic.Int64
	failID atomic.Int64
}

func newLoadgen(url string, conns int) (*loadgen, error) {
	lg := &loadgen{}
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		MaxIdleConns:        conns,
		IdleConnTimeout:     time.Minute,
	}
	c, err := httpfront.NewClient(httpfront.ClientConfig{
		BaseURL:    url,
		MaxRetries: -1,
		HTTPClient: &http.Client{Transport: &countingTransport{base: tr, n: &lg.body}},
	})
	if err != nil {
		return nil, err
	}
	lg.client = c
	return lg, nil
}

// do sends one query due at due. With a tracer it records the request's
// spans: loadgen.request from the due time, httpfront.query around
// Client.Query, and the serve.queue_wait, engine.run and share.<cache>
// intervals the wire Report carries. The report gives durations, not
// timestamps, so those sit back to back inside httpfront.query with the
// front-door remainder split evenly before and after them.
func (lg *loadgen) do(p pair, due time.Time, tr *tracer) outcome {
	o := outcome{pair: p, due: due, sent: time.Now()}
	ctx, cancel := context.WithDeadline(context.Background(), due.Add(hardDeadline))
	defer cancel()
	o.qStart = time.Now()
	res, err := lg.client.Query(ctx, httpfront.QuerySpec{
		Algo: p.algo, Source: p.source, Engine: p.engine, Tenant: p.tenant,
	})
	o.end = time.Now()
	if err != nil {
		o.err = err
		o.id = "unanswered-" + strconv.FormatInt(lg.failID.Add(1), 10)
	} else {
		o.rep, o.id = res.Report, res.RequestID
		o.hash = hashValues(res.Values)
		rb, _ := json.Marshal(res.Report)
		o.wire = int64(len(rb) + len(res.RequestID))
	}
	if tr == nil {
		return o
	}
	root := tr.add("loadgen.request", o.id, 0, o.due, o.end)
	q := tr.add("httpfront.query", o.id, root, o.qStart, o.end)
	if o.err == nil {
		qw, rt := time.Duration(o.rep.QueueWait), time.Duration(o.rep.RunTime)
		front := max(o.end.Sub(o.qStart)-qw-rt, 0)
		s0 := o.qStart.Add(front / 2)
		tr.add("serve.queue_wait", o.id, q, s0, s0.Add(qw))
		if rt > 0 {
			tr.add("engine.run", o.id, q, s0.Add(qw), s0.Add(qw+rt))
		}
		if o.rep.Cache != "" {
			// Answered by the sharing layer (share.hit, share.coalesced
			// or share.batched) after the queue wait.
			tr.add("share."+o.rep.Cache, o.id, q, s0.Add(qw), s0.Add(qw+rt))
		}
	}
	return o
}

// open runs an open loop: each request is sent at its due time whether
// or not earlier ones have answered. It returns the outcomes in schedule
// order, the makespan from the first due time to the last response, and
// the response body bytes read.
func (lg *loadgen) open(reqs []request, tr *tracer) ([]outcome, time.Duration, int64) {
	out := make([]outcome, len(reqs))
	b0 := lg.body.Load()
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for i := range reqs {
		due := start.Add(reqs[i].due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			out[i] = lg.do(reqs[i].pair, due, tr)
		}(i, due)
	}
	wg.Wait()
	first := start.Add(reqs[0].due)
	var last time.Time
	for i := range out {
		if out[i].end.After(last) {
			last = out[i].end
		}
	}
	return out, last.Sub(first), lg.body.Load() - b0
}

// closed runs workers clients back to back for dur: each sends its next
// query as soon as the previous one answers.
func (lg *loadgen) closed(workers int, dur time.Duration, next func() pair) ([]outcome, time.Duration) {
	var mu sync.Mutex
	var outs []outcome
	start := time.Now()
	stopAt := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stopAt) {
				mu.Lock()
				p := next()
				mu.Unlock()
				o := lg.do(p, time.Now(), nil)
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// batch sends pairs with at most workers in flight, untimed.
func (lg *loadgen) batch(workers int, pairs []pair) []outcome {
	out := make([]outcome, len(pairs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, p := range pairs {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, p pair) {
			defer func() { <-sem; wg.Done() }()
			out[i] = lg.do(p, time.Now(), nil)
		}(i, p)
	}
	wg.Wait()
	return out
}
