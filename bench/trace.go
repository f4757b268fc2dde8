package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request share
// Req; Parent is the ID of the span that caused this one (0 for a root).
// Start and End are nanoseconds since the tracer was made.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds a trace file to roughly 40 MB; a loaded closed loop makes
// four spans a request at twenty thousand requests a second.
const maxSpans = 400_000

// tracer keeps spans in memory and writes them when the run ends. A nil
// tracer records nothing, so untraced repetitions pay one nil check a span.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	nextID  uint64
	dropped uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record stores a finished span and returns its ID for children to name.
func (t *tracer) record(parent uint64, req, name string, start, end time.Time) uint64 {
	id := t.reserve()
	t.finish(id, parent, req, name, start, end)
	return id
}

// reserve hands out an ID before the span ends, so children recorded first
// can name their parent; finish then stores the parent under that ID.
func (t *tracer) reserve() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

func (t *tracer) finish(id, parent uint64, req, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
}

// writeFile writes one span a line, then a line saying how many were dropped.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Encode(map[string]uint64{"spans": uint64(len(t.spans)), "dropped": t.dropped}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
