package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer's origin; Parent is the causing span's ID
// (0 for a root); ReqID ties every span of one request together.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	ReqID  string `json:"req_id,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them once the run ends. A nil
// *tracer records nothing, so untraced runs pay only a nil check.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records one span and returns its ID (0 on a nil tracer).
func (t *tracer) add(name, reqID string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, ReqID: reqID,
		Start: start.Sub(t.origin).Nanoseconds(),
		End:   end.Sub(t.origin).Nanoseconds(),
	})
	return id
}

// finish sets the end of span id, for a parent opened before its
// children ended.
func (t *tracer) finish(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(t.origin).Nanoseconds()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) write(path string, h host) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Host  host   `json:"host"`
		Spans []span `json:"spans"`
	}{h, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
