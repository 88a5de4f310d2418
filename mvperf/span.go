package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one replayed request
// share req; parent is the index of the enclosing span, -1 at the root.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog records spans in memory against one epoch.
type spanLog struct {
	epoch time.Time
	spans []span
	// open is the stack of spans begun and not yet ended.
	open []int
	req  int
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// begin opens a span under the innermost open span and returns its
// index for end.
func (l *spanLog) begin(name string) int {
	parent := -1
	if len(l.open) > 0 {
		parent = l.open[len(l.open)-1]
	}
	l.spans = append(l.spans, span{Name: name, Req: l.req, Parent: parent, Start: int64(time.Since(l.epoch))})
	l.open = append(l.open, len(l.spans)-1)
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	l.spans[i].End = int64(time.Since(l.epoch))
	l.open = l.open[:len(l.open)-1]
}

// selfTimes returns each span's duration minus the part of its
// interval covered by its children (overlapping children count once,
// and only inside the parent's interval).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		reach = s.Start
		for _, v := range ivs {
			if v.hi <= reach {
				continue
			}
			covered += v.hi - max(v.lo, reach)
			reach = v.hi
		}
		out[i] = s.dur() - time.Duration(covered)
	}
	return out
}

// layerTime sums self time and counts spans per name.
type layerTime struct {
	self  time.Duration
	calls int
}

func (lt layerTime) meanMicros() float64 {
	if lt.calls == 0 {
		return 0
	}
	return float64(lt.self.Nanoseconds()) / float64(lt.calls) / 1e3
}

func byName(spans []span) map[string]layerTime {
	self := selfTimes(spans)
	out := map[string]layerTime{}
	for i, s := range spans {
		lt := out[s.Name]
		lt.self += self[i]
		lt.calls++
		out[s.Name] = lt
	}
	return out
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
