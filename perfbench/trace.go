package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one replayed request
// share Request; Parent is the index of the enclosing span, -1 for a
// root.
type span struct {
	Name    string        `json:"name"`
	Request int           `json:"request"`
	Parent  int           `json:"parent"`
	Start   time.Duration `json:"start"`
	End     time.Duration `json:"end"`
	Self    time.Duration `json:"self"`
}

// recorder keeps spans in memory; they are written out at the end of
// the run. Not safe for concurrent use: the replay is sequential.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its
// index; end closes it.
func (r *recorder) begin(name string, request, parent int) int {
	r.spans = append(r.spans, span{Name: name, Request: request, Parent: parent, Start: time.Since(r.epoch)})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) time.Duration {
	r.spans[i].End = time.Since(r.epoch)
	return r.spans[i].End - r.spans[i].Start
}

// computeSelf sets every span's self time: its duration minus the part
// of its interval that its children cover. Children may overlap each
// other (parallel calls) or stick out of the parent; each instant of
// the parent's interval is subtracted at most once.
func computeSelf(spans []span) {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		var iv [][2]time.Duration
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, p.Start), min(spans[c].End, p.End)
			if lo < hi {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi time.Duration
		open := false
		for _, v := range iv {
			switch {
			case !open:
				curLo, curHi, open = v[0], v[1], true
			case v[0] <= curHi:
				curHi = max(curHi, v[1])
			default:
				covered += curHi - curLo
				curLo, curHi = v[0], v[1]
			}
		}
		if open {
			covered += curHi - curLo
		}
		p.Self = p.End - p.Start - covered
	}
}

// write emits the spans as JSON lines.
func (r *recorder) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
