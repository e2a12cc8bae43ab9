package httpfront

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"mega/internal/megaerr"
)

func TestDurationJSON(t *testing.T) {
	b, err := json.Marshal(Duration(1500 * time.Millisecond))
	if err != nil || string(b) != `"1.5s"` {
		t.Fatalf("Marshal = %s, %v", b, err)
	}
	var d Duration
	if err := json.Unmarshal([]byte(`"250ms"`), &d); err != nil || d != Duration(250*time.Millisecond) {
		t.Errorf("Unmarshal string = %v, %v", time.Duration(d), err)
	}
	if err := json.Unmarshal([]byte(`1000000`), &d); err != nil || d != Duration(time.Millisecond) {
		t.Errorf("Unmarshal int = %v, %v", time.Duration(d), err)
	}
	if err := json.Unmarshal([]byte(`"bogus"`), &d); err == nil {
		t.Error("Unmarshal accepted a non-duration string")
	}
}

func TestValuesRoundTripBitIdentical(t *testing.T) {
	// The wire promise: every float64 — including the ±Inf identities JSON
	// cannot carry, NaN payloads, and negative zero — survives bit-exactly.
	in := [][]float64{
		{0, 1, -2.5, math.Inf(1), math.Inf(-1)},
		{math.NaN(), math.Copysign(0, -1), math.MaxFloat64, math.SmallestNonzeroFloat64},
		{},
	}
	res, err := parseQueryResponse(appendQueryResponse(nil, in, Report{}, ""))
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, res.Values, in)
	for _, bad := range []string{strings.Repeat("!", 32), "AAAA"} {
		body := `{"snapshots":1,"values_b64":["` + bad + `"],"report":{}}`
		if _, err := parseQueryResponse([]byte(body)); !errors.Is(err, megaerr.ErrInvalidInput) {
			t.Errorf("values %q: error = %v, want ErrInvalidInput", bad, err)
		}
	}
}

// queryResponse is encoding/json's view of a successful POST /v1/query
// body. It is the reference layout appendQueryResponse must reproduce
// byte for byte, and what test handlers use to craft success bodies.
type queryResponse struct {
	Snapshots int      `json:"snapshots"`
	ValuesB64 []string `json:"values_b64"`
	Report    Report   `json:"report"`
	RequestID string   `json:"request_id,omitempty"`
}

// encodeValues is the reference encoding of result values: each snapshot
// as base64 over its little-endian Float64bits.
func encodeValues(vals [][]float64) []string {
	out := make([]string, len(vals))
	for i, snap := range vals {
		buf := make([]byte, 8*len(snap))
		for j, v := range snap {
			binary.LittleEndian.PutUint64(buf[8*j:], math.Float64bits(v))
		}
		out[i] = base64.StdEncoding.EncodeToString(buf)
	}
	return out
}

// decodeValues is encodeValues's inverse; malformed input is an
// ErrInvalidInput error.
func decodeValues(b64 []string) ([][]float64, error) {
	out := make([][]float64, len(b64))
	for i, s := range b64 {
		buf, err := base64.StdEncoding.DecodeString(s)
		if err != nil {
			return nil, megaerr.Invalidf("httpfront: snapshot %d values do not decode: %v", i, err)
		}
		if len(buf)%8 != 0 {
			return nil, megaerr.Invalidf("httpfront: snapshot %d values are %d bytes, not a float64 array", i, len(buf))
		}
		snap := make([]float64, len(buf)/8)
		for j := range snap {
			snap[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*j:]))
		}
		out[i] = snap
	}
	return out, nil
}

// referenceBody renders a success body through encoding/json, the way
// the server wrote it before the hand-written codec.
func referenceBody(t testing.TB, vals [][]float64, rep Report, id string) []byte {
	t.Helper()
	var buf bytes.Buffer
	qr := queryResponse{Snapshots: len(vals), ValuesB64: encodeValues(vals), Report: rep, RequestID: id}
	if err := json.NewEncoder(&buf).Encode(qr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func requireSameBits(t testing.TB, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("snapshots = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("snapshot %d: %d values, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("snapshot %d value %d: bits %x, want %x", i, j,
					math.Float64bits(got[i][j]), math.Float64bits(want[i][j]))
			}
		}
	}
}

// pkValues is megaserve's default answer shape — the PK window's 16
// snapshots × 3200 vertices — with SSSP-like content: small integral
// distances and unreached +Inf vertices.
func pkValues() [][]float64 {
	rng := rand.New(rand.NewSource(1))
	vals := make([][]float64, 16)
	for i := range vals {
		snap := make([]float64, 3200)
		for j := range snap {
			if rng.Intn(8) == 0 {
				snap[j] = math.Inf(1)
			} else {
				snap[j] = float64(rng.Intn(40))
			}
		}
		vals[i] = snap
	}
	return vals
}

var pkReport = Report{
	Engine: "cache", Cache: "hit", Attempts: 1,
	QueueWait: Duration(12 * time.Microsecond), RunTime: Duration(3 * time.Microsecond),
}

const pkRequestID = "client-17-a0"

type wireCase struct {
	name string
	vals [][]float64
	rep  Report
	id   string
}

// wireCases is the byte-identity table; FuzzQueryResponseDecode seeds
// from it too.
func wireCases() []wireCase {
	ramp := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i) / 3
		}
		return out
	}
	full := Report{
		Engine: "parallel", Cache: "batched", Seeded: true, Sources: 3, Demoted: true, Probe: true,
		Attempts: 2, FellBack: true, Resumed: true,
		QueueWait: Duration(1500 * time.Microsecond), RunTime: Duration(-time.Nanosecond),
	}
	basic := Report{Engine: "sequential", Attempts: 1}
	return []wireCase{
		{name: "no snapshots", vals: [][]float64{}, rep: basic, id: "r-1"},
		{name: "nil snapshots", vals: nil, rep: basic},
		{name: "empty snapshot", vals: [][]float64{{}}, rep: basic, id: "r-2"},
		{name: "empty among full", vals: [][]float64{{1, 2}, {}, {3}}, rep: basic, id: "r-3"},
		{name: "infinities", vals: [][]float64{{math.Inf(1), math.Inf(-1)}}, rep: basic, id: "r-4"},
		{name: "nan payloads", vals: [][]float64{{
			math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000abc),
		}}, rep: basic, id: "r-5"},
		{name: "negative zero", vals: [][]float64{{math.Copysign(0, -1), 0}}, rep: basic, id: "r-6"},
		{name: "extremes", vals: [][]float64{{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}}, rep: basic},
		{name: "padding one two none", vals: [][]float64{ramp(1), ramp(2), ramp(3)}, rep: basic},
		{name: "chunk boundaries", vals: [][]float64{
			ramp(valueChunk - 1), ramp(valueChunk), ramp(valueChunk + 1), ramp(2*valueChunk + 2),
		}, rep: basic, id: "r-7"},
		{name: "report unset", vals: [][]float64{{1}}, rep: Report{}},
		{name: "report full", vals: [][]float64{{1}}, rep: full, id: "r-8"},
		{name: "request id empty", vals: [][]float64{{1}}, rep: full, id: ""},
		{name: "request id escaped", vals: [][]float64{{1}}, rep: basic,
			id: "q\"uote\\back<lt>&amp\x01\u2028\xff\xfeend"},
		{name: "pk window", vals: pkValues(), rep: pkReport, id: pkRequestID},
	}
}

// TestQueryResponseMatchesEncodingJSON pins the hand-written codec to
// encoding/json: appendQueryResponse's bytes equal json.Encoder's
// rendering of queryResponse, and parseQueryResponse reads them back to
// the same values (bit for bit), report and request id that reflection
// decoding yields.
func TestQueryResponseMatchesEncodingJSON(t *testing.T) {
	for _, c := range wireCases() {
		t.Run(c.name, func(t *testing.T) {
			want := referenceBody(t, c.vals, c.rep, c.id)
			got := appendQueryResponse(nil, c.vals, c.rep, c.id)
			if !bytes.Equal(got, want) {
				t.Fatalf("body differs from encoding/json:\n got %.300q\nwant %.300q", got, want)
			}
			if pre := appendQueryResponse([]byte("x"), c.vals, c.rep, c.id); !bytes.Equal(pre[1:], want) {
				t.Fatal("appending after existing bytes changed the body")
			}

			res, err := parseQueryResponse(got)
			if err != nil {
				t.Fatalf("parseQueryResponse: %v", err)
			}
			requireSameBits(t, res.Values, c.vals)
			var ref queryResponse
			if err := json.Unmarshal(want, &ref); err != nil {
				t.Fatal(err)
			}
			if res.Report != ref.Report || res.RequestID != ref.RequestID {
				t.Errorf("tail = %+v %q, encoding/json reads %+v %q", res.Report, res.RequestID, ref.Report, ref.RequestID)
			}
		})
	}
}

// TestParseQueryResponseRejects: anything outside the encoder's layout is
// a typed ErrInvalidInput, never a panic and never a partial result.
func TestParseQueryResponseRejects(t *testing.T) {
	const tail = `],"report":{"engine":"sequential","attempts":1}}`
	one := base64.StdEncoding.EncodeToString(make([]byte, 8))
	cases := map[string]string{
		"empty body":              ``,
		"not an object":           `[]`,
		"count above arrays":      `{"snapshots":3,"values_b64":["` + one + `"` + tail,
		"count below arrays":      `{"snapshots":1,"values_b64":["` + one + `","` + one + `"` + tail,
		"count zero with arrays":  `{"snapshots":0,"values_b64":["` + one + `"` + tail,
		"count without arrays":    `{"snapshots":1,"values_b64":[` + tail,
		"count overflows":         `{"snapshots":99999999999999999999999,"values_b64":[` + tail,
		"count negative":          `{"snapshots":-1,"values_b64":[` + tail,
		"count leading zero":      `{"snapshots":01,"values_b64":["` + one + `"` + tail,
		"count fractional":        `{"snapshots":1.0,"values_b64":["` + one + `"` + tail,
		"count a string":          `{"snapshots":"1","values_b64":["` + one + `"` + tail,
		"count missing":           `{"snapshots":,"values_b64":[` + tail,
		"values null":             `{"snapshots":0,"values_b64":null,"report":{}}`,
		"element a number":        `{"snapshots":1,"values_b64":[1` + tail,
		"element null":            `{"snapshots":1,"values_b64":[null` + tail,
		"element after string":    `{"snapshots":2,"values_b64":["` + one + `",2` + tail,
		"trailing comma":          `{"snapshots":1,"values_b64":["` + one + `",` + tail,
		"bad separator":           `{"snapshots":2,"values_b64":["` + one + `";"` + one + `"` + tail,
		"bad base64":              `{"snapshots":1,"values_b64":["` + strings.Repeat("!", 32) + `"` + tail,
		"base64 not padded":       `{"snapshots":1,"values_b64":["AAAAAAAAAAA"` + tail,
		"early padding":           `{"snapshots":1,"values_b64":["AA==` + strings.Repeat("A", 28) + `"` + tail,
		"json escape in values":   `{"snapshots":1,"values_b64":["AAAAAAAAAA\u003d"` + tail,
		"newlines in values":      `{"snapshots":1,"values_b64":["` + strings.Repeat("A\n", 32) + `"` + tail,
		"three bytes":             `{"snapshots":1,"values_b64":["AAAA"` + tail,
		"twelve bytes":            `{"snapshots":1,"values_b64":["AAAAAAAAAAAAAAAA"` + tail,
		"nine bytes":              `{"snapshots":1,"values_b64":["AAAAAAAAAAAA"` + tail,
		"report missing":          `{"snapshots":0,"values_b64":[]}`,
		"report malformed":        `{"snapshots":0,"values_b64":[],"report":{"attempts":"x"}}`,
		"report not an object":    `{"snapshots":0,"values_b64":[],"report":7}`,
		"request id not a string": `{"snapshots":0,"values_b64":[],"report":{},"request_id":5}`,
		"trailing garbage":        `{"snapshots":0,"values_b64":[],"report":{}}x`,
		"keys reordered":          `{"values_b64":[],"snapshots":0,"report":{}}`,
		"whitespace in layout":    `{"snapshots": 0,"values_b64":[],"report":{}}`,
	}
	// The tail after the values, against a body that is valid up to it.
	head := `{"snapshots":1,"values_b64":["` + one + `"],"report":`
	rep := `{"engine":"sequential","attempts":1,"queue_wait":"0s","run_time":"0s"}`
	for _, ok := range []string{head + rep + "}\n", head + rep + `,"request_id":"a"}` + "\n"} {
		if _, err := parseQueryResponse([]byte(ok)); err != nil {
			t.Fatalf("control body %q rejected: %v", ok, err)
		}
	}
	for name, tail := range map[string]string{
		"report not canonical":         `{"engine":"sequential","attempts":1}}` + "\n",
		"report keys reordered":        `{"attempts":1,"engine":"sequential","queue_wait":"0s","run_time":"0s"}}` + "\n",
		"report duration as integer":   `{"engine":"sequential","attempts":1,"queue_wait":0,"run_time":"0s"}}` + "\n",
		"whitespace before report":     " " + rep + "}\n",
		"whitespace after report":      rep + " }\n",
		"no trailing newline":          rep + "}",
		"two trailing newlines":        rep + "}\n\n",
		"snapshots after report":       rep + `,"snapshots":9}` + "\n",
		"unknown key after report":     rep + `,"extra":1}` + "\n",
		"report duplicated":            rep + `,"report":` + rep + "}\n",
		"values duplicated":            rep + `,"values_b64":["` + one + `"]}` + "\n",
		"request id duplicated":        rep + `,"request_id":"a","request_id":"b"}` + "\n",
		"request id empty":             rep + `,"request_id":""}` + "\n",
		"request id null":              rep + `,"request_id":null}` + "\n",
		"key after request id":         rep + `,"request_id":"a","snapshots":9}` + "\n",
		"whitespace around request id": rep + `,"request_id": "a" }` + "\n",
	} {
		cases[name] = head + tail
	}
	for name, body := range cases {
		if _, err := parseQueryResponse([]byte(body)); !errors.Is(err, megaerr.ErrInvalidInput) {
			t.Errorf("%s: error = %v, want ErrInvalidInput", name, err)
		}
	}

	// Truncation at every offset short of the closing brace, so every
	// structural boundary (key, colon, bracket, quote, comma, report,
	// request id) is cut at least once.
	body := appendQueryResponse(nil, [][]float64{{1, math.Inf(1)}, {}, {2}}, Report{Engine: "sequential", Attempts: 1}, "r-9")
	for i := 0; i < len(body)-1; i++ {
		if _, err := parseQueryResponse(body[:i]); !errors.Is(err, megaerr.ErrInvalidInput) {
			t.Fatalf("truncated to %d of %d bytes (%q): error = %v, want ErrInvalidInput", i, len(body), body[:i], err)
		}
	}
}

// FuzzQueryResponseDecode: parseQueryResponse never panics, rejects only
// with ErrInvalidInput, and whatever it accepts re-encodes to a body that
// parses back to the same value bits, report and request id.
func FuzzQueryResponseDecode(f *testing.F) {
	for _, c := range wireCases() {
		if c.name != "pk window" {
			f.Add(referenceBody(f, c.vals, c.rep, c.id))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		res, err := parseQueryResponse(body)
		if err != nil {
			if !errors.Is(err, megaerr.ErrInvalidInput) {
				t.Fatalf("rejected with %v, want ErrInvalidInput", err)
			}
			return
		}
		again, err := parseQueryResponse(appendQueryResponse(nil, res.Values, res.Report, res.RequestID))
		if err != nil {
			t.Fatalf("re-encoded body rejected: %v", err)
		}
		requireSameBits(t, again.Values, res.Values)
		if again.Report != res.Report || again.RequestID != res.RequestID {
			t.Fatalf("tail changed: %+v %q -> %+v %q", res.Report, res.RequestID, again.Report, again.RequestID)
		}
	})
}

// Benchmark sinks keep the measured calls from being optimized away.
var (
	sinkBody   []byte
	sinkResult *QueryResult
)

func BenchmarkQueryResponseEncode(b *testing.B) {
	vals := pkValues()
	b.SetBytes(int64(len(appendQueryResponse(nil, vals, pkReport, pkRequestID))))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkBody = appendQueryResponse(nil, vals, pkReport, pkRequestID)
	}
}

func BenchmarkQueryResponseDecode(b *testing.B) {
	body := appendQueryResponse(nil, pkValues(), pkReport, pkRequestID)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := parseQueryResponse(body)
		if err != nil {
			b.Fatal(err)
		}
		sinkResult = res
	}
}

// TestErrorTaxonomyRoundTrip pins the full bidirectional mapping: every
// megaerr class encodes to its documented status and kind, and the decoded
// error still matches the original sentinels under errors.Is.
func TestErrorTaxonomyRoundTrip(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		draining   bool
		wantStatus int
		wantKind   string
		sentinels  []error
	}{
		{
			name:       "invalid",
			err:        megaerr.Invalidf("bad source"),
			wantStatus: http.StatusBadRequest,
			wantKind:   kindInvalid,
			sentinels:  []error{megaerr.ErrInvalidInput},
		},
		{
			name:       "overload",
			err:        &megaerr.OverloadError{Reason: "queue full", Capacity: 4, Queued: 16, RetryAfter: 1200 * time.Millisecond},
			wantStatus: http.StatusTooManyRequests,
			wantKind:   kindOverload,
			sentinels:  []error{megaerr.ErrOverload},
		},
		{
			name:       "overload shed",
			err:        &megaerr.OverloadError{Reason: "shed for higher-priority request", Capacity: 2, Queued: 8},
			wantStatus: http.StatusTooManyRequests,
			wantKind:   kindOverload,
			sentinels:  []error{megaerr.ErrOverload},
		},
		{
			name:       "overload wrapped",
			err:        fmt.Errorf("submit: %w", megaerr.ErrOverload),
			wantStatus: http.StatusTooManyRequests,
			wantKind:   kindOverload,
			sentinels:  []error{megaerr.ErrOverload},
		},
		{
			name:       "draining",
			err:        &megaerr.OverloadError{Reason: "service draining", Capacity: 4, Queued: 2},
			wantStatus: http.StatusServiceUnavailable,
			wantKind:   kindDraining,
			sentinels:  []error{megaerr.ErrOverload},
		},
		{
			name:       "closed",
			err:        &megaerr.OverloadError{Reason: "service closed"},
			wantStatus: http.StatusServiceUnavailable,
			wantKind:   kindDraining,
			sentinels:  []error{megaerr.ErrOverload},
		},
		{
			name:       "divergence",
			err:        &megaerr.DivergenceError{Engine: "parallel", Limit: "MaxRounds", Rounds: 70},
			wantStatus: http.StatusUnprocessableEntity,
			wantKind:   kindDivergence,
			sentinels:  []error{megaerr.ErrDivergence},
		},
		{
			name:       "deadline",
			err:        megaerr.Canceled("serve queue wait", context.DeadlineExceeded),
			wantStatus: http.StatusGatewayTimeout,
			wantKind:   kindDeadline,
			sentinels:  []error{megaerr.ErrCanceled, context.DeadlineExceeded},
		},
		{
			name:       "canceled",
			err:        megaerr.Canceled("engine round", context.Canceled),
			wantStatus: StatusClientClosedRequest,
			wantKind:   kindCanceled,
			sentinels:  []error{megaerr.ErrCanceled, context.Canceled},
		},
		{
			name:       "canceled while draining",
			err:        megaerr.Canceled("serve drain", context.Canceled),
			draining:   true,
			wantStatus: http.StatusServiceUnavailable,
			wantKind:   kindCanceled,
			sentinels:  []error{megaerr.ErrCanceled},
		},
		{
			name:       "transient",
			err:        megaerr.Transientf("fault engine.round visit 3"),
			wantStatus: http.StatusInternalServerError,
			wantKind:   kindTransient,
			sentinels:  []error{megaerr.ErrTransient},
		},
		{
			name:       "checkpoint",
			err:        megaerr.Checkpointf("checksum mismatch"),
			wantStatus: http.StatusInternalServerError,
			wantKind:   kindCheckpoint,
			sentinels:  []error{megaerr.ErrCheckpoint},
		},
		{
			name:       "audit",
			err:        megaerr.Auditf("serve.accounting", "admitted 5 != resolved 4"),
			wantStatus: http.StatusInternalServerError,
			wantKind:   kindAudit,
			sentinels:  []error{megaerr.ErrAudit},
		},
		{
			name:       "worker panic",
			err:        &megaerr.WorkerPanicError{Shard: 3, Round: 7, Value: "boom"},
			wantStatus: http.StatusInternalServerError,
			wantKind:   kindPanic,
			sentinels:  nil, // matched via errors.As below
		},
		{
			name:       "internal",
			err:        errors.New("unclassified"),
			wantStatus: http.StatusInternalServerError,
			wantKind:   kindInternal,
			sentinels:  nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, we := encodeError(tc.err, tc.draining)
			if status != tc.wantStatus {
				t.Errorf("status = %d, want %d", status, tc.wantStatus)
			}
			if we.Kind != tc.wantKind {
				t.Errorf("kind = %q, want %q", we.Kind, tc.wantKind)
			}
			if we.Message == "" {
				t.Error("wire message is empty")
			}

			// Simulate the real wire: marshal, unmarshal, decode.
			b, err := json.Marshal(errorBody{Error: we})
			if err != nil {
				t.Fatal(err)
			}
			var eb errorBody
			if err := json.Unmarshal(b, &eb); err != nil {
				t.Fatal(err)
			}
			dec := decodeError(status, eb.Error)
			for _, s := range tc.sentinels {
				if !errors.Is(dec, s) {
					t.Errorf("decoded %T %q does not match sentinel %v", dec, dec.Error(), s)
				}
			}
			// The taxonomy must also stay *exclusive*: a decoded error must
			// not match sentinels from other classes.
			for _, other := range []error{
				megaerr.ErrInvalidInput, megaerr.ErrOverload, megaerr.ErrDivergence,
				megaerr.ErrCanceled, megaerr.ErrTransient, megaerr.ErrCheckpoint, megaerr.ErrAudit,
			} {
				isWanted := false
				for _, s := range tc.sentinels {
					if other == s {
						isWanted = true
					}
				}
				if !isWanted && errors.Is(dec, other) {
					t.Errorf("decoded %q spuriously matches %v", dec.Error(), other)
				}
			}
		})
	}
}

func TestOverloadFieldFidelity(t *testing.T) {
	orig := &megaerr.OverloadError{Reason: "queue full", Capacity: 4, Queued: 16, RetryAfter: 1200 * time.Millisecond}
	status, we := encodeError(orig, false)
	dec := decodeError(status, we)
	var oe *megaerr.OverloadError
	if !errors.As(dec, &oe) {
		t.Fatalf("decoded %T does not As to *OverloadError", dec)
	}
	if oe.Reason != orig.Reason || oe.Capacity != orig.Capacity || oe.Queued != orig.Queued {
		t.Errorf("fields = %+v, want %+v", oe, orig)
	}
	if oe.RetryAfter != orig.RetryAfter {
		t.Errorf("RetryAfter = %s, want %s", oe.RetryAfter, orig.RetryAfter)
	}
}

func TestWorkerPanicFieldFidelity(t *testing.T) {
	orig := &megaerr.WorkerPanicError{Shard: 3, Round: 7, Value: "boom"}
	status, we := encodeError(orig, false)
	if we.Shard != 3 || we.Round != 7 {
		t.Fatalf("wire shard/round = %d/%d", we.Shard, we.Round)
	}
	dec := decodeError(status, we)
	var wp *megaerr.WorkerPanicError
	if !errors.As(dec, &wp) {
		t.Fatalf("decoded %T does not As to *WorkerPanicError", dec)
	}
	if wp.Shard != 3 || wp.Round != 7 {
		t.Errorf("decoded shard/round = %d/%d, want 3/7", wp.Shard, wp.Round)
	}
}

func TestDecodeStatusFallback(t *testing.T) {
	cases := []struct {
		status   int
		sentinel error
	}{
		{http.StatusBadRequest, megaerr.ErrInvalidInput},
		{http.StatusNotFound, megaerr.ErrInvalidInput},
		{http.StatusMethodNotAllowed, megaerr.ErrInvalidInput},
		{http.StatusRequestEntityTooLarge, megaerr.ErrInvalidInput},
		{http.StatusUnprocessableEntity, megaerr.ErrDivergence},
		{http.StatusTooManyRequests, megaerr.ErrOverload},
		{http.StatusServiceUnavailable, megaerr.ErrOverload},
		{http.StatusGatewayTimeout, megaerr.ErrCanceled},
		{StatusClientClosedRequest, megaerr.ErrCanceled},
	}
	for _, tc := range cases {
		err := decodeStatusFallback(tc.status, "mangled")
		if !errors.Is(err, tc.sentinel) {
			t.Errorf("fallback(%d) = %v, does not match %v", tc.status, err, tc.sentinel)
		}
	}
	if err := decodeStatusFallback(http.StatusGatewayTimeout, "x"); !errors.Is(err, context.DeadlineExceeded) {
		t.Error("504 fallback should carry DeadlineExceeded")
	}
	if err := decodeStatusFallback(http.StatusTeapot, "odd"); err == nil || err.Error() != "odd" {
		t.Errorf("unknown status fallback = %v", err)
	}
	// An unknown kind in the body also routes through the fallback.
	if err := decodeError(http.StatusTooManyRequests, wireError{Kind: "mystery", Message: "m"}); !errors.Is(err, megaerr.ErrOverload) {
		t.Errorf("unknown-kind decode = %v, want overload fallback", err)
	}
}
