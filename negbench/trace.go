package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the package boundary. Start and End are offsets from the tracer's epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 = root
	Name   string        `json:"name"`
	Req    int64         `json:"req"` // request id; 0 = not part of a request
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; write dumps them once the run is over.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span over [start, end) and returns its id.
func (t *tracer) add(name string, parent int, req int64, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return id
}

// begin opens a span that end closes.
func (t *tracer) begin(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, 0, now, now)
}

func (t *tracer) end(id int) {
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now.Sub(t.epoch)
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping stretches once.
func covered(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its child spans cover.
func selfTime(spans []span, id int) time.Duration {
	s := spans[id-1]
	var ivs [][2]time.Duration
	for _, c := range spans {
		if c.Parent == id {
			ivs = append(ivs, [2]time.Duration{c.Start, c.End})
		}
	}
	return s.dur() - covered(s.Start, s.End, ivs)
}

// byName returns the spans called name, in recording order.
func byName(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// sumSelfUnder adds up the self times of the spans called name that descend
// from the span root.
func sumSelfUnder(spans []span, root int, name string) time.Duration {
	var d time.Duration
	for _, s := range byName(spans, name) {
		for p := s.Parent; p != 0; p = spans[p-1].Parent {
			if p == root {
				d += selfTime(spans, s.ID)
				break
			}
		}
	}
	return d
}
