//go:build !race

// The race detector makes sync.Pool drop items at random, so allocation
// counts are only stable, and only gated, without it.

package httpfront

import "testing"

// Allocation gate for one PK-window response, each bound the value
// measured when the codec landed (go1.24, linux/amd64). Encoding is the
// output buffer plus encoding/json's work on the report and request id;
// decoding is the result, its 16 snapshot slices, and the report tail,
// decoded and then re-marshaled to check its layout.
// The encoding/json path this replaced measured 67-69 allocations to
// encode and 87 to decode.
const (
	encodeAllocsPK = 12
	decodeAllocsPK = 48
)

func TestQueryResponseAllocs(t *testing.T) {
	vals := pkValues()
	body := appendQueryResponse(nil, vals, pkReport, pkRequestID)
	enc := testing.AllocsPerRun(20, func() { appendQueryResponse(nil, vals, pkReport, pkRequestID) })
	dec := testing.AllocsPerRun(20, func() {
		if _, err := parseQueryResponse(body); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs: encode %.0f, decode %.0f", enc, dec)
	if enc > encodeAllocsPK {
		t.Errorf("encode allocates %.0f times, gate is %d", enc, encodeAllocsPK)
	}
	if dec > decodeAllocsPK {
		t.Errorf("decode allocates %.0f times, gate is %d", dec, decodeAllocsPK)
	}
}
