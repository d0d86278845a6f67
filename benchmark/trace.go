package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// (or one training iteration, or one graph solve) share ID; Parent
// names the span of the same ID that caused this one ("" at the root).
// Times are nanoseconds since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent string `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay only a nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: now()} }

func (t *tracer) add(name, id, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.addSpan(span{Name: name, ID: id, Parent: parent,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
}

func (t *tracer) addSpan(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops every span recorded so far: set-up traffic passes the
// same instrumented handlers as the measured pass and is not part of it.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the durations of its direct children (spans of the
// same ID naming it as Parent), floored at zero.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	type key struct{ id, name string }
	children := map[key]int64{}
	for _, s := range t.spans {
		if s.Parent != "" {
			children[key{s.ID, s.Parent}] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		d := s.End - s.Start - children[key{s.ID, s.Name}]
		if d < 0 {
			d = 0
		}
		self[s.Name] += time.Duration(d)
	}
	return self
}

// total returns the summed duration of every span called name.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.End - s.Start
		}
	}
	return time.Duration(sum)
}

// named returns the spans called name, keyed by ID.
func (t *tracer) named(name string) map[string]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]span{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.ID] = s
		}
	}
	return out
}

// namedShare is the share of root's time that lies in its child spans:
// what the trace attributes to a layer below the root.
func (t *tracer) namedShare(root string) float64 {
	return 1 - ratio(float64(t.selfTimes()[root]), float64(t.total(root)))
}

// layerRow is one line of the layer table written next to the spans.
type layerRow struct {
	Layer  string  `json:"layer"`
	SelfMS float64 `json:"self_ms"`
	Share  float64 `json:"share_of_root"`
}

// layerTable ranks layers by self time; shares are of root's total.
func (t *tracer) layerTable(root string) []layerRow {
	self := t.selfTimes()
	total := t.total(root)
	rows := make([]layerRow, 0, len(self))
	for name, d := range self {
		row := layerRow{Layer: name, SelfMS: ms(d)}
		if total > 0 {
			row.Share = float64(d) / float64(total)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfMS > rows[j].SelfMS {
			return true
		}
		if rows[i].SelfMS < rows[j].SelfMS {
			return false
		}
		return rows[i].Layer < rows[j].Layer
	})
	return rows
}

// dump writes the layer table and every span to path.
func (t *tracer) dump(path, root string) error {
	table := t.layerTable(root)
	t.mu.Lock()
	doc := struct {
		Root   string     `json:"root"`
		Layers []layerRow `json:"layers"`
		Spans  []span     `json:"spans"`
	}{root, table, t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
