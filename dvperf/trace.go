package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Spans are recorded by the benchmark around each call into a package's
// public functions; nothing inside internal/ is instrumented. Where a call
// returns its own timing (pregel.Stats.Duration), the benchmark adds a
// derived child span of that duration ending when the call returned, so the
// caller's self time excludes the engine. A nil *tracer records nothing,
// which is how the untraced run measures the end-to-end metrics.

// span is one recorded interval. Times are seconds since the tracer began.
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"` // 0: a root span
	Trace   int              `json:"trace"`  // id of the root span of the same operation
	Layer   string           `json:"layer"`
	Name    string           `json:"name"`
	Start   float64          `json:"start_s"`
	End     float64          `json:"end_s"`
	Derived bool             `json:"derived,omitempty"` // duration read from a returned counter
	Counts  map[string]int64 `json:"counts,omitempty"`
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(layer, name string, parent int, start, end time.Time, counts map[string]int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	root := id
	if parent > 0 {
		root = t.spans[parent-1].Trace
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Trace: root, Layer: layer, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(), Counts: counts,
	})
	return id
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(layer, name string, parent int) int {
	now := time.Now()
	return t.add(layer, name, parent, now, now, nil)
}

func (t *tracer) close(id int, counts map[string]int64) {
	if t == nil || id == 0 {
		return
	}
	end := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end
	t.spans[id-1].Counts = counts
}

// derived records a child of parent lasting d and ending at end.
func (t *tracer) derived(layer, name string, parent int, end time.Time, d time.Duration, counts map[string]int64) int {
	if t == nil {
		return 0
	}
	id := t.add(layer, name, parent, end.Add(-d), end, counts)
	t.mu.Lock()
	t.spans[id-1].Derived = true
	t.mu.Unlock()
	return id
}

// selfTimes returns, per layer, the sum over its spans of the span's
// duration minus the part of that interval its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]float64{}
	for _, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for _, s := range t.spans {
		out[s.Layer] += (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi float64, ivs [][2]float64) float64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, curLo, curHi := 0.0, 0.0, -1.0
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// write stores the spans and the per-layer self times as JSON.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		SelfSeconds map[string]float64 `json:"self_s"`
		Spans       []span             `json:"spans"`
	}{self, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
