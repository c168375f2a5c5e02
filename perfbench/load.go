package main

import (
	"bytes"
	"crypto/sha256"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Phases of a run.
const (
	phaseOpen = iota
	phaseClosed
	phaseProbe
)

// outcome is one sent request as the client saw it.
type outcome struct {
	req   request
	phase int
	// id is unique per run; the traced run's handler timer keys on it.
	id string
	// lat is the client latency: from the due time in the open loop,
	// from the send in the closed loop.
	lat time.Duration
	// doneAt is the completion offset from the phase start.
	doneAt time.Duration
	// slice is a closed-loop request's slice; late marks one completed
	// after its slice's end.
	slice  int
	late   bool
	status int
	// body indexes the run's bodyStore; -1 when there is no body.
	body int
	err  error
	// ok is set by the checker: a 200 whose body equals its reference.
	ok bool
}

// bodyStore keeps each distinct response body once, with the run time
// fields (elapsed_ns, prepared_at, prepared_ns) zeroed so that equal
// results share an entry. Responses are reduced as they arrive, so the
// client holds a few distinct bodies instead of every response.
type bodyStore struct {
	mu     sync.Mutex
	index  map[[32]byte]int
	bodies [][]byte
}

func newBodyStore() *bodyStore { return &bodyStore{index: map[[32]byte]int{}} }

func (s *bodyStore) add(b []byte) int {
	b = zeroVolatile(b)
	key := sha256.Sum256(b)
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.index[key]; ok {
		return i
	}
	s.index[key] = len(s.bodies)
	s.bodies = append(s.bodies, b)
	return len(s.bodies) - 1
}

func (s *bodyStore) get(i int) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bodies[i]
}

var volatileKeys = [][]byte{[]byte(`"elapsed_ns":`), []byte(`"prepared_ns":`), []byte(`"prepared_at":`)}

// zeroVolatile replaces the value after every volatile key with 0. The
// values are JSON numbers or strings without escapes.
func zeroVolatile(b []byte) []byte {
	out := make([]byte, 0, len(b))
	for len(b) > 0 {
		at, key := -1, []byte(nil)
		for _, k := range volatileKeys {
			if i := bytes.Index(b, k); i >= 0 && (at < 0 || i < at) {
				at, key = i, k
			}
		}
		if at < 0 {
			out = append(out, b...)
			break
		}
		out = append(out, b[:at+len(key)]...)
		b = b[at+len(key):]
		end := 0
		if len(b) > 0 && b[0] == '"' {
			end = 1 + bytes.IndexByte(b[1:], '"') + 1
		} else {
			for end < len(b) && (b[end] == '-' || b[end] >= '0' && b[end] <= '9') {
				end++
			}
		}
		out = append(out, '0')
		b = b[end:]
	}
	return out
}

// generator sends a run's requests over at most conns connections.
type generator struct {
	client *http.Client
	base   string
	in     *inputs
	conns  int
	store  *bodyStore
	ids    atomic.Int64
}

func (g *generator) do(r request, phase int) outcome {
	method, path, body := g.in.body(r)
	o := outcome{req: r, phase: phase, id: strconv.FormatInt(g.ids.Add(1), 10), body: -1}
	req, err := http.NewRequest(method, g.base+path, bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(benchIDHeader, o.id)
	resp, err := g.client.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		o.err = err
		return o
	}
	o.status = resp.StatusCode
	o.body = g.store.add(buf.Bytes())
	return o
}

// runOpen sends reqs on their schedule: each is due at phase start
// plus its Due offset, waits in a FIFO queue for a free connection if
// all of its lane's are busy, and is timed from when it was due, so a
// stall delays and counts against every request behind it. Nothing is
// dropped. PATCHes have a lane of their own — one connection, taken
// from the reads' nproc — so they are applied in schedule order and a
// PATCH waiting on the disk does not hold up reads on the client side.
// lags holds how late the dispatcher itself enqueued each request.
func (g *generator) runOpen(reqs []request) (outs []outcome, lags []time.Duration) {
	outs = make([]outcome, len(reqs))
	lags = make([]time.Duration, len(reqs))
	readConns := g.conns
	for _, r := range reqs {
		if r.Op == opPatch {
			readConns = max(g.conns-1, 1)
			break
		}
	}
	// Sized to the number of sends, so the dispatcher never blocks.
	reads, patches := make(chan int, len(reqs)), make(chan int, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	serve := func(queue <-chan int) {
		defer wg.Done()
		for i := range queue {
			o := g.do(reqs[i], phaseOpen)
			now := time.Since(start)
			o.lat = now - reqs[i].Due
			o.doneAt = now
			outs[i] = o
		}
	}
	wg.Add(readConns + 1)
	for w := 0; w < readConns; w++ {
		go serve(reads)
	}
	go serve(patches)
	for i, r := range reqs {
		if d := r.Due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		lags[i] = time.Since(start) - r.Due
		if r.Op == opPatch {
			patches <- i
		} else {
			reads <- i
		}
	}
	close(reads)
	close(patches)
	wg.Wait()
	return outs, lags
}

// runClosed runs conns clients that each send their next request as
// soon as the previous one completes, taking requests from reqs in
// order, for dur of load cut into equal slices. between runs with no
// load before each slice and after the last. Requests
// still in flight at a slice's end are completed and returned with
// their doneAt past the slice; callers count only those done within
// it. doneAt counts load time: slice k starts at k·dur/slices.
func (g *generator) runClosed(reqs []request, dur time.Duration, slices int, between func()) []outcome {
	var next atomic.Int64
	span := dur / time.Duration(slices)
	per := make([][]outcome, g.conns)
	for k := 0; k < slices; k++ {
		between()
		off := span * time.Duration(k)
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < g.conns; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for time.Since(start) < span {
					i := int(next.Add(1)-1) % len(reqs)
					sent := time.Since(start)
					o := g.do(reqs[i], phaseClosed)
					done := time.Since(start)
					o.lat = done - sent
					o.doneAt = off + done
					o.slice, o.late = k, done > span
					per[w] = append(per[w], o)
				}
			}(w)
		}
		wg.Wait()
	}
	between()
	var outs []outcome
	for _, p := range per {
		outs = append(outs, p...)
	}
	return outs
}

// benchIDHeader carries the outcome id to the traced run's handler
// timer.
const benchIDHeader = "X-Bench-Id"

// handlerTimer wraps Handler().ServeHTTP and records the server time of
// each request by its benchmark id. While off is set it only passes
// requests through.
type handlerTimer struct {
	off atomic.Bool
	mu  sync.Mutex
	d   map[string]time.Duration
}

func newHandlerTimer() *handlerTimer { return &handlerTimer{d: map[string]time.Duration{}} }

func (t *handlerTimer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if t.off.Load() {
			h.ServeHTTP(w, r)
			return
		}
		id := r.Header.Get(benchIDHeader)
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		if id == "" {
			return
		}
		t.mu.Lock()
		t.d[id] = d
		t.mu.Unlock()
	})
}

func (t *handlerTimer) get(id string) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.d[id]
	return d, ok
}

// timerSpans is how many equal spans of time the traced run's
// closed-loop phase is cut into; the handler timer is on in the spans
// timerOn reports and off in the others.
const timerSpans = 10

func timerOn(k int) bool { return k%2 == 0 }

// alternate switches the timer on and off span by span over dur, from
// now, and returns a func that waits for the switching to end and
// leaves the timer on.
func (t *handlerTimer) alternate(dur time.Duration) (wait func()) {
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		for k := 1; k < timerSpans; k++ {
			time.Sleep(time.Until(start.Add(dur * time.Duration(k) / timerSpans)))
			t.off.Store(!timerOn(k))
		}
	}()
	return func() {
		<-done
		t.off.Store(false)
	}
}
