// Package httpfront is the hardened HTTP front end for the concurrent
// query service: a thin stdlib-only protocol adapter that exposes
// serve.Service over POST /v1/query plus health, readiness, metrics, and
// stats endpoints — robustness-first.
//
// The wire contract's core promise is taxonomy fidelity: every failure
// mode the lower layers distinguish (the internal/megaerr sentinels,
// overload with retry hints, drain-in-progress, contained panics)
// survives the HTTP round trip intact. The server maps typed errors to
// status codes plus a structured JSON error body; the companion Client
// reconstructs errors that still match the original sentinels under
// errors.Is (and, for *megaerr.OverloadError, carry the original fields
// under errors.As). Remote callers therefore keep the exact in-process
// error contract.
//
// Status-code mapping (mirrored by the megasim/megaserve exit-code
// table in the README):
//
//	400 invalid      megaerr.ErrInvalidInput (bad spec, unknown fields, oversized body)
//	422 divergence   megaerr.ErrDivergence (non-monotone algorithm)
//	429 overload     megaerr.ErrOverload while serving (queue full, shed); Retry-After set
//	499 canceled     megaerr.ErrCanceled without a deadline (caller went away)
//	503 draining     admission refused or query unwound because the service is draining/closed
//	504 deadline     megaerr.ErrCanceled carrying context.DeadlineExceeded (deadline, queue timeout)
//	500 transient / checkpoint / audit / panic / internal
//
// Result values travel as base64-encoded little-endian IEEE-754 arrays
// (one string per snapshot) rather than JSON numbers: algorithm
// identities include ±Inf, which JSON cannot represent, and the contract
// demands Float64bits-identical values end to end.
package httpfront

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"slices"
	"strconv"
	"time"

	"mega/internal/megaerr"
	"mega/internal/serve"
)

// StatusClientClosedRequest is the non-standard (nginx-convention) status
// for a request whose caller went away before the query resolved. There
// is no stdlib constant for it.
const StatusClientClosedRequest = 499

// TenantHeader carries the caller's tenant identity. It rides as a
// header, not a body field, because tenancy is transport-level identity
// (in a production deployment the auth layer would stamp it), and the
// server validates it before the body is even decoded. Absent header =
// the default tenant; a present-but-malformed value is a 400.
const TenantHeader = "X-Mega-Tenant"

// Duration is a time.Duration that marshals as a Go duration string
// ("1.5s") and unmarshals from either a duration string or an integer
// nanosecond count.
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return err
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*d = Duration(n)
	return nil
}

// QuerySpec is the JSON body of POST /v1/query: one evolving-graph query
// against the server's shared window.
type QuerySpec struct {
	// Algo names the query algorithm (BFS, SSSP, SSWP, SSNP, Viterbi, CC).
	Algo string `json:"algo"`
	// Source is the query's source vertex; must be in [0, vertices).
	Source int64 `json:"source"`
	// Priority is "low", "normal" (default), or "high".
	Priority string `json:"priority,omitempty"`
	// Deadline bounds the query's total time in the service (queue wait
	// plus run time); zero means the server default.
	Deadline Duration `json:"deadline,omitempty"`
	// QueueTimeout bounds only the wait for a run slot.
	QueueTimeout Duration `json:"queue_timeout,omitempty"`
	// Engine is "seq" (default) or "par".
	Engine string `json:"engine,omitempty"`
	// Workers is the parallel worker count (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Label tags the request in reports; defaults to the request ID.
	Label string `json:"label,omitempty"`
	// Tenant names the principal the query is accounted against (empty =
	// default tenant). It travels as the X-Mega-Tenant header rather than
	// a body field — the Client sets the header from this value, and the
	// server fills it back in from the header before validation.
	Tenant string `json:"-"`
	// Faults holds deterministic fault-injection specs in the
	// "site[#shard]:kind[=latency]@visit[xevery]" grammar. Honored only
	// when the server was started with fault injection enabled (chaos
	// testing); rejected as invalid otherwise.
	Faults []string `json:"faults,omitempty"`
	// FaultSeed seeds probabilistic fault ops (0 = server default).
	FaultSeed int64 `json:"fault_seed,omitempty"`
}

// Report mirrors serve.Report on the wire.
type Report struct {
	Engine string `json:"engine"`
	// Cache is the sharing layer's involvement: "hit", "coalesced",
	// "batched", or absent for a normal solo run.
	Cache string `json:"cache,omitempty"`
	// Seeded marks a run initialized from cached converged values.
	Seeded bool `json:"seeded,omitempty"`
	// Sources is how many distinct sources the answering engine run
	// served (absent for solo runs and cache hits).
	Sources  int  `json:"sources,omitempty"`
	Demoted  bool `json:"demoted,omitempty"`
	Probe    bool `json:"probe,omitempty"`
	Attempts int  `json:"attempts"`
	FellBack bool `json:"fell_back,omitempty"`
	// Resumed marks a query that picked up a durable checkpoint a
	// previous process left behind instead of recomputing from scratch.
	Resumed   bool     `json:"resumed,omitempty"`
	QueueWait Duration `json:"queue_wait"`
	RunTime   Duration `json:"run_time"`
}

func reportFromServe(r serve.Report) Report {
	return Report{
		Engine:    r.Engine,
		Cache:     r.Cache,
		Seeded:    r.Seeded,
		Sources:   r.Sources,
		Demoted:   r.Demoted,
		Probe:     r.Probe,
		Attempts:  r.Attempts,
		FellBack:  r.FellBack,
		Resumed:   r.Resumed,
		QueueWait: Duration(r.QueueWait),
		RunTime:   Duration(r.RunTime),
	}
}

// QueryResult is a successful remote query as the Client returns it:
// values decoded back to float64 (bit-identical to the server's), the
// execution report, and the request ID for correlation.
type QueryResult struct {
	Values    [][]float64
	Report    Report
	RequestID string
}

// StatsReply is the JSON body of GET /stats: the service's accounting
// snapshot plus the current overload back-off estimate.
type StatsReply struct {
	serve.Stats
	RetryAfterHintMs int64 `json:"retry_after_hint_ms"`
}

// healthReply is the JSON body of /healthz and /readyz.
type healthReply struct {
	OK    bool   `json:"ok"`
	State string `json:"state,omitempty"`
}

// The success body of POST /v1/query is the one response large enough
// for encoding/json to dominate it: a PK window answer is 16 snapshots ×
// 3200 float64s, a half-megabyte body, and on a cache hit the front door
// would spend nearly all its time reflecting over and scanning base64.
// appendQueryResponse and parseQueryResponse write and read that body
// directly. The bytes are exactly what json.Encoder writes for
//
//	struct {
//		Snapshots int      `json:"snapshots"`
//		ValuesB64 []string `json:"values_b64"`
//		Report    Report   `json:"report"`
//		RequestID string   `json:"request_id,omitempty"`
//	}
//
// (values_b64 holds one base64 string per snapshot, never null; a
// trailing newline follows), and that layout is the only one the client
// accepts.
const (
	respSnapshotsKey = `{"snapshots":`
	respValuesKey    = `,"values_b64":[`
	respReportKey    = `,"report":`
	respRequestIDKey = `,"request_id":`
)

// valueChunk is how many float64s the codec moves through base64 per
// step: 3072 bytes, a multiple of both 8 (whole float64s) and 3 (whole
// base64 quanta), so chunk encodings concatenate without interior
// padding and no per-snapshot scratch buffer is needed.
const valueChunk = 384

// b64Chunk is the base64 length of one full chunk.
const b64Chunk = 8 * valueChunk / 3 * 4

// appendQueryResponse appends the success body for values, rep and
// requestID to dst. Each snapshot is base64 over its little-endian
// Float64bits — exact for every float64, including the ±Inf identities
// and NaN payloads JSON numbers cannot carry.
func appendQueryResponse(dst []byte, values [][]float64, rep Report, requestID string) []byte {
	// The report and the request-id string go through encoding/json so
	// their escaping (HTML-safe, invalid UTF-8 replaced) stays identical.
	// Neither can fail: both are plain strings, bools, ints and Durations.
	rb, _ := json.Marshal(rep)
	var ib []byte
	if requestID != "" {
		ib, _ = json.Marshal(requestID)
	}
	n := len(respSnapshotsKey) + 20 + len(respValuesKey) + 1 + len(respReportKey) + len(rb) +
		len(respRequestIDKey) + len(ib) + 2
	for _, snap := range values {
		n += base64.StdEncoding.EncodedLen(8*len(snap)) + 3
	}
	dst = slices.Grow(dst, n)

	dst = append(dst, respSnapshotsKey...)
	dst = strconv.AppendInt(dst, int64(len(values)), 10)
	dst = append(dst, respValuesKey...)
	var chunk [8 * valueChunk]byte
	for i, snap := range values {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '"')
		for len(snap) > 0 {
			k := min(len(snap), valueChunk)
			for j, v := range snap[:k] {
				binary.LittleEndian.PutUint64(chunk[8*j:], math.Float64bits(v))
			}
			dst = base64.StdEncoding.AppendEncode(dst, chunk[:8*k])
			snap = snap[k:]
		}
		dst = append(dst, '"')
	}
	dst = append(dst, ']')
	dst = append(dst, respReportKey...)
	dst = append(dst, rb...)
	if len(ib) > 0 {
		dst = append(dst, respRequestIDKey...)
		dst = append(dst, ib...)
	}
	return append(dst, '}', '\n')
}

// parseQueryResponse is appendQueryResponse's inverse. It walks the fixed
// layout by hand, base64-decodes each snapshot straight into its float64
// slice, and hands only the small report/request-id tail to
// encoding/json, then holds that tail to the layout too (checkTail).
// Anything outside the layout — a snapshot count that disagrees with the
// arrays, a non-string element, bad base64, a length that is not whole
// float64s, stray whitespace, an extra or repeated key, truncation — is
// an ErrInvalidInput error.
func parseQueryResponse(body []byte) (*QueryResult, error) {
	rest, ok := bytes.CutPrefix(body, []byte(respSnapshotsKey))
	if !ok {
		return nil, badResponse("does not open with %s", respSnapshotsKey)
	}
	n, rest, err := cutCount(rest)
	if err != nil {
		return nil, err
	}
	if rest, ok = bytes.CutPrefix(rest, []byte(respValuesKey)); !ok {
		return nil, badResponse("snapshot count not followed by %s", respValuesKey)
	}
	// Every element takes at least three bytes (two quotes and a
	// separator), which bounds an honest count before it sizes anything.
	if n > len(rest)/3+1 {
		return nil, badResponse("claims %d snapshots in %d bytes", n, len(rest))
	}
	values := make([][]float64, 0, n)
	if len(rest) > 0 && rest[0] == ']' {
		rest = rest[1:]
	} else {
		for {
			if len(values) == n {
				return nil, badResponse("claims %d snapshots but carries more", n)
			}
			var snap []float64
			if snap, rest, err = cutSnapshot(rest, len(values)); err != nil {
				return nil, err
			}
			values = append(values, snap)
			if len(rest) == 0 {
				return nil, badResponse("truncated after snapshot %d", len(values)-1)
			}
			sep := rest[0]
			rest = rest[1:]
			if sep == ']' {
				break
			}
			if sep != ',' {
				return nil, badResponse("unexpected %q after snapshot %d", sep, len(values)-1)
			}
		}
	}
	if len(values) != n {
		return nil, badResponse("claims %d snapshots but carries %d", n, len(values))
	}
	if !bytes.HasPrefix(rest, []byte(respReportKey)) {
		return nil, badResponse("values not followed by %s", respReportKey)
	}
	// The tail is the rest of the object: reopen it in place of the comma.
	tail := append([]byte{'{'}, rest[1:]...)
	var t struct {
		Report    Report `json:"report"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(tail, &t); err != nil {
		return nil, badResponse("%v", err)
	}
	if err := checkTail(rest[len(respReportKey):], t.Report, t.RequestID); err != nil {
		return nil, err
	}
	return &QueryResult{Values: values, Report: t.Report, RequestID: t.RequestID}, nil
}

// checkTail holds the tail to the encoder's layout, which json.Unmarshal
// does not: it accepts whitespace and unknown, reordered or duplicate
// keys. b, everything after `"report":`, must be the report exactly as
// json.Marshal renders rep, then — only when id is non-empty — the
// request-id key and a single JSON string holding id, then "}\n".
func checkTail(b []byte, rep Report, id string) error {
	rb, _ := json.Marshal(rep)
	b, ok := bytes.CutPrefix(b, rb)
	if !ok {
		return badResponse("report is not laid out as %s", rb)
	}
	if id != "" {
		// The id string is not compared with json.Marshal(id): the
		// encoder writes invalid UTF-8 as \ufffd, which decodes to a
		// rune that re-marshals raw.
		s, ok := bytes.CutPrefix(b, []byte(respRequestIDKey))
		if !ok {
			return badResponse("report not followed by %s", respRequestIDKey)
		}
		if s, ok = bytes.CutSuffix(s, []byte("}\n")); !ok {
			return badResponse("request id not followed by a closing brace and newline")
		}
		if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' || json.Unmarshal(s, new(string)) != nil {
			return badResponse("request id is not one JSON string")
		}
		return nil
	}
	if string(b) != "}\n" {
		return badResponse("unexpected %.40q after the report", b)
	}
	return nil
}

func badResponse(format string, args ...any) error {
	return megaerr.Invalidf("httpfront: bad response body: "+format, args...)
}

// cutCount parses the snapshot count at the front of b: a non-negative
// JSON integer, no leading zeros, no larger than b is long.
func cutCount(b []byte) (int, []byte, error) {
	i, n := 0, 0
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		if i == 1 && b[0] == '0' {
			return 0, nil, badResponse("snapshot count has a leading zero")
		}
		n = 10*n + int(b[i]-'0')
		if n > len(b) {
			return 0, nil, badResponse("snapshot count %s... exceeds the body", b[:i+1])
		}
		i++
	}
	if i == 0 {
		return 0, nil, badResponse("snapshot count is not a non-negative integer")
	}
	return n, b[i:], nil
}

// cutSnapshot decodes the base64 string at the front of b as snapshot i
// and returns the bytes after its closing quote.
func cutSnapshot(b []byte, i int) ([]float64, []byte, error) {
	if len(b) == 0 || b[0] != '"' {
		return nil, nil, badResponse("snapshot %d is not a string", i)
	}
	end := bytes.IndexByte(b[1:], '"')
	if end < 0 {
		return nil, nil, badResponse("snapshot %d string is unterminated", i)
	}
	s := b[1 : 1+end]
	if len(s)%4 != 0 {
		return nil, nil, megaerr.Invalidf("httpfront: snapshot %d values do not decode: %d base64 characters", i, len(s))
	}
	size := len(s) / 4 * 3
	if len(s) > 0 && s[len(s)-1] == '=' {
		size--
		if s[len(s)-2] == '=' {
			size--
		}
	}
	if size%8 != 0 {
		return nil, nil, megaerr.Invalidf("httpfront: snapshot %d values are %d bytes, not a float64 array", i, size)
	}
	snap := make([]float64, size/8)
	var chunk [8 * valueChunk]byte
	for j := 0; j < len(snap); j += valueChunk {
		k := min(len(snap)-j, valueChunk)
		enc := s[:min(len(s), b64Chunk)]
		m, err := base64.StdEncoding.Decode(chunk[:], enc)
		if err != nil {
			return nil, nil, megaerr.Invalidf("httpfront: snapshot %d values do not decode: %v", i, err)
		}
		if m != 8*k {
			// The decoder skipped characters (it ignores CR and LF) or met
			// padding early: not this layout.
			return nil, nil, megaerr.Invalidf("httpfront: snapshot %d values do not decode: %d bytes in a %d-byte chunk", i, m, 8*k)
		}
		for x := range snap[j : j+k] {
			snap[j+x] = math.Float64frombits(binary.LittleEndian.Uint64(chunk[8*x:]))
		}
		s = s[len(enc):]
	}
	return snap, b[2+end:], nil
}

// Error kinds: the wire-level error taxonomy. The kind, not the status
// code, is the client's primary decode key — the status is transport
// semantics (retryability, caching), the kind is the megaerr taxonomy.
const (
	kindInvalid    = "invalid"
	kindOverload   = "overload"
	kindDraining   = "draining"
	kindDeadline   = "deadline"
	kindCanceled   = "canceled"
	kindDivergence = "divergence"
	kindTransient  = "transient"
	kindCheckpoint = "checkpoint"
	kindAudit      = "audit"
	kindPanic      = "panic"
	kindInternal   = "internal"
)

// wireError is the JSON error detail inside errorBody.
type wireError struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
	// Overload detail (kind "overload"/"draining"). Tenant names the
	// tenant whose quota or queue drove a tenant-scoped decision.
	Reason       string `json:"reason,omitempty"`
	Tenant       string `json:"tenant,omitempty"`
	Capacity     int    `json:"capacity,omitempty"`
	Queued       int    `json:"queued,omitempty"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
	// Contained-panic detail (kind "panic").
	Shard int `json:"shard,omitempty"`
	Round int `json:"round,omitempty"`
	// RequestID correlates the failure with server-side accounting.
	RequestID string `json:"request_id,omitempty"`
}

// errorBody is the JSON body of every non-2xx response.
type errorBody struct {
	Error wireError `json:"error"`
}

// encodeError classifies a typed error into its HTTP status and wire
// detail. draining reports whether the server is shutting down, which
// turns bare cancellations (queued requests unwound by the drain) into
// 503s so well-behaved clients fail over instead of giving up.
func encodeError(err error, draining bool) (int, wireError) {
	we := wireError{Message: err.Error()}
	var oe *megaerr.OverloadError
	var wp *megaerr.WorkerPanicError
	switch {
	case errors.Is(err, megaerr.ErrInvalidInput):
		we.Kind = kindInvalid
		return http.StatusBadRequest, we
	case errors.As(err, &oe):
		we.Reason, we.Tenant, we.Capacity, we.Queued = oe.Reason, oe.Tenant, oe.Capacity, oe.Queued
		we.RetryAfterMs = oe.RetryAfter.Milliseconds()
		if oe.Reason == "service draining" || oe.Reason == "service closed" {
			we.Kind = kindDraining
			return http.StatusServiceUnavailable, we
		}
		we.Kind = kindOverload
		return http.StatusTooManyRequests, we
	case errors.Is(err, megaerr.ErrOverload):
		we.Kind = kindOverload
		return http.StatusTooManyRequests, we
	case errors.Is(err, megaerr.ErrDivergence):
		we.Kind = kindDivergence
		return http.StatusUnprocessableEntity, we
	case errors.Is(err, megaerr.ErrCheckpoint):
		we.Kind = kindCheckpoint
		return http.StatusInternalServerError, we
	case errors.Is(err, megaerr.ErrAudit):
		we.Kind = kindAudit
		return http.StatusInternalServerError, we
	case errors.As(err, &wp):
		we.Kind = kindPanic
		we.Shard, we.Round = wp.Shard, wp.Round
		return http.StatusInternalServerError, we
	case errors.Is(err, megaerr.ErrTransient):
		we.Kind = kindTransient
		return http.StatusInternalServerError, we
	case errors.Is(err, megaerr.ErrCanceled):
		if errors.Is(err, context.DeadlineExceeded) {
			we.Kind = kindDeadline
			return http.StatusGatewayTimeout, we
		}
		we.Kind = kindCanceled
		if draining {
			return http.StatusServiceUnavailable, we
		}
		return StatusClientClosedRequest, we
	default:
		we.Kind = kindInternal
		return http.StatusInternalServerError, we
	}
}

// remoteError reconstructs a server-side typed error on the client: the
// original message verbatim plus the sentinels errors.Is must match.
type remoteError struct {
	msg       string
	sentinels []error
}

func (e *remoteError) Error() string   { return e.msg }
func (e *remoteError) Unwrap() []error { return e.sentinels }

// decodeError is encodeError's inverse: it rebuilds an error matching the
// same megaerr sentinels from the wire detail. The kind is authoritative;
// decodeStatusFallback covers responses whose body was lost or mangled.
func decodeError(status int, we wireError) error {
	msg := we.Message
	if msg == "" {
		msg = "httpfront: remote error " + http.StatusText(status)
	}
	switch we.Kind {
	case kindInvalid:
		return megaerr.Invalidf("%s", msg)
	case kindOverload, kindDraining:
		reason := we.Reason
		if reason == "" {
			reason = map[string]string{kindOverload: "queue full", kindDraining: "service draining"}[we.Kind]
		}
		return &megaerr.OverloadError{
			Reason:     reason,
			Tenant:     we.Tenant,
			Capacity:   we.Capacity,
			Queued:     we.Queued,
			RetryAfter: time.Duration(we.RetryAfterMs) * time.Millisecond,
		}
	case kindDeadline:
		return &remoteError{msg: msg, sentinels: []error{megaerr.ErrCanceled, context.DeadlineExceeded}}
	case kindCanceled:
		return &remoteError{msg: msg, sentinels: []error{megaerr.ErrCanceled, context.Canceled}}
	case kindDivergence:
		return &remoteError{msg: msg, sentinels: []error{megaerr.ErrDivergence}}
	case kindTransient:
		return &remoteError{msg: msg, sentinels: []error{megaerr.ErrTransient}}
	case kindCheckpoint:
		return &remoteError{msg: msg, sentinels: []error{megaerr.ErrCheckpoint}}
	case kindAudit:
		return &remoteError{msg: msg, sentinels: []error{megaerr.ErrAudit}}
	case kindPanic:
		return &megaerr.WorkerPanicError{Shard: we.Shard, Round: we.Round, Value: msg}
	case kindInternal:
		return errors.New(msg)
	default:
		return decodeStatusFallback(status, msg)
	}
}

// decodeStatusFallback maps a bare status code (no parseable error body —
// an intermediary rewrote the response, or the body was truncated) to the
// closest sentinel, so errors.Is dispatch keeps working degraded.
func decodeStatusFallback(status int, msg string) error {
	switch status {
	case http.StatusBadRequest, http.StatusMethodNotAllowed,
		http.StatusNotFound, http.StatusRequestEntityTooLarge:
		return megaerr.Invalidf("%s", msg)
	case http.StatusUnprocessableEntity:
		return &remoteError{msg: msg, sentinels: []error{megaerr.ErrDivergence}}
	case http.StatusTooManyRequests:
		return &megaerr.OverloadError{Reason: "queue full"}
	case http.StatusServiceUnavailable:
		return &megaerr.OverloadError{Reason: "service draining"}
	case http.StatusGatewayTimeout:
		return &remoteError{msg: msg, sentinels: []error{megaerr.ErrCanceled, context.DeadlineExceeded}}
	case StatusClientClosedRequest:
		return &remoteError{msg: msg, sentinels: []error{megaerr.ErrCanceled, context.Canceled}}
	default:
		return errors.New(msg)
	}
}
