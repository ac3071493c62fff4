package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one recorded interval at a layer boundary. Times are nanoseconds
// since the recorder started; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A disabled recorder
// hands out no-op spans, so untraced runs pay one branch per boundary.
type recorder struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	r      *recorder
	id     int64
	parent int64
	name   string
	start  int64
}

// begin opens a span named name under parent (0 for a root). Safe for
// concurrent use: the handler wrapper records from server goroutines.
func (r *recorder) begin(name string, parent int64) openSpan {
	if !r.on {
		return openSpan{}
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return openSpan{r: r, id: id, parent: parent, name: name, start: int64(time.Since(r.t0))}
}

// end closes the span and records it.
func (s openSpan) end() {
	if s.r == nil {
		return
	}
	end := int64(time.Since(s.r.t0))
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, span{ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, End: end})
	s.r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the parts of
// its children's intervals that lie inside it. Children of one span are
// assumed not to overlap each other, as they cannot in a single client's
// sequence of calls.
func selfTimes(spans []span) map[int64]int64 {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.End - s.Start
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			self[p.ID] -= max(0, min(s.End, p.End)-max(s.Start, p.Start))
		}
	}
	return self
}

// spanMillis returns, for every span named name, its duration in
// milliseconds, or its self time when self is true.
func spanMillis(spans []span, name string, self bool) []float64 {
	var st map[int64]int64
	if self {
		st = selfTimes(spans)
	}
	var out []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		d := s.End - s.Start
		if self {
			d = st[s.ID]
		}
		out = append(out, float64(d)/1e6)
	}
	return out
}

// writeSpans writes the run's metadata and spans as one JSON document.
func writeSpans(path string, meta map[string]string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"meta": meta, "spans": spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
