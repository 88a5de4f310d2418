package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vmcloud/internal/obs"
)

// client is one closed-loop caller driving the handler in-process. It
// reuses its request and response writer, so a call allocates nothing
// on the benchmark's side.
type client struct {
	req  http.Request
	url  url.URL
	body bodyReader
	w    respWriter
}

type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// respWriter keeps the status, the headers and a copy of the body.
type respWriter struct {
	h      http.Header
	status int
	buf    []byte
}

func (w *respWriter) Header() http.Header { return w.h }
func (w *respWriter) WriteHeader(s int)   { w.status = s }
func (w *respWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.buf = append(w.buf, b...)
	return len(b), nil
}

func newClient() *client {
	c := &client{}
	c.req.URL = &c.url
	c.req.Body = &c.body
	c.w.h = make(http.Header, 8)
	c.w.buf = make([]byte, 0, 64<<10)
	return c
}

// do sends one request and leaves the response in c.w.
func (c *client) do(h http.Handler, method, path, query string, body []byte) {
	c.req.Method = method
	c.url.Path = path
	c.url.RawQuery = query
	c.body.Reset(body)
	c.w.status = 0
	c.w.buf = c.w.buf[:0]
	clear(c.w.h)
	h.ServeHTTP(&c.w, &c.req)
}

func (c *client) header(key string) string {
	if v := c.w.h[key]; len(v) > 0 {
		return v[0]
	}
	return ""
}

// outcome classifies a response by its X-Cache header.
type outcome int

const (
	outHit outcome = iota
	outMiss
	outCoalesced
	outStale
	outOther
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"hit", "miss", "coalesced", "stale", "other"}

func outcomeOf(xcache string) outcome {
	for o, name := range outcomeNames[:outOther] {
		if xcache == name {
			return outcome(o)
		}
	}
	return outOther
}

// missRecord is one cold solve seen in a traced window.
type missRecord struct {
	n       uint64 // stream index
	slot    int
	ep      endpoint
	handler time.Duration
	phases  [obs.NumPhases]time.Duration
}

// tally is what one client (or, merged, a whole window) observed.
type tally struct {
	lat       [numEndpoints]*latHist
	outcomes  [numEndpoints][numOutcomes]int
	attempted int
	// hitLat and misses are kept in traced windows only.
	hitLat *latHist
	misses []missRecord
}

func newTally(traced bool) *tally {
	t := &tally{}
	for e := range t.lat {
		t.lat[e] = newLatHist()
	}
	if traced {
		t.hitLat = newLatHist()
	}
	return t
}

func (t *tally) merge(o *tally) {
	for e := range t.lat {
		t.lat[e].merge(o.lat[e])
		for k := range t.outcomes[e] {
			t.outcomes[e][k] += o.outcomes[e][k]
		}
	}
	t.attempted += o.attempted
	if t.hitLat != nil {
		t.hitLat.merge(o.hitLat)
	}
	t.misses = append(t.misses, o.misses...)
}

func (t *tally) count(o outcome) int {
	n := 0
	for e := range t.outcomes {
		n += t.outcomes[e][o]
	}
	return n
}

// window is one closed-loop measurement: clients each send the next
// request of the stream as soon as their previous one returns, until
// dur has passed (or, when count > 0, until count requests were sent).
// With extend set, a timed window runs on past dur, up to twice dur,
// while an endpoint still lacks the samples its p95 needs.
type window struct {
	h       http.Handler
	wl      *traffic
	chk     *checker
	start   uint64
	dur     time.Duration
	count   uint64
	clients int
	traced  bool
	extend  bool
}

type windowResult struct {
	elapsed time.Duration
	next    uint64 // first stream index the window did not send
	t       *tally
}

func (wd window) run() windowResult {
	query := ""
	if wd.traced {
		query = "debug=phases"
	}
	var next atomic.Uint64
	next.Store(wd.start)
	// past counts each endpoint's samples once clients pass dur: each
	// client adds its own tally when it first passes, then one per
	// request.
	var past [numEndpoints]atomic.Int64
	enough := func() bool {
		for e := range past {
			if !supportsP95(int(past[e].Load())) {
				return false
			}
		}
		return true
	}
	tallies := make([]*tally, wd.clients)
	var wg sync.WaitGroup
	begin := time.Now()
	for i := range tallies {
		tallies[i] = newTally(wd.traced)
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			c := newClient()
			passed := false
			for {
				n := next.Add(1) - 1
				if wd.count > 0 && n >= wd.start+wd.count {
					return
				}
				ref := wd.wl.at(n)
				t0 := time.Now()
				c.do(wd.h, "POST", endpointPaths[ref.ep], query, wd.wl.body(ref))
				t1 := time.Now()
				d := t1.Sub(t0)
				o := outcomeOf(c.header("X-Cache"))
				t.attempted++
				t.lat[ref.ep].add(d)
				t.outcomes[ref.ep][o]++
				wd.chk.check(ref, c.w.status, c.w.buf)
				if wd.traced {
					switch o {
					case outHit:
						t.hitLat.add(d)
					case outMiss:
						t.misses = append(t.misses, missRecord{
							n: n, slot: ref.slot, ep: ref.ep, handler: d,
							phases: parsePhases(c.header("X-Solve-Phases")),
						})
					}
				}
				if el := t1.Sub(begin); wd.count == 0 && el >= wd.dur {
					if passed {
						past[ref.ep].Add(1)
					} else {
						for e := range past {
							past[e].Add(int64(t.lat[e].n))
						}
						passed = true
					}
					if !wd.extend || el >= 2*wd.dur || enough() {
						return
					}
				}
			}
		}(tallies[i])
	}
	wg.Wait()
	res := windowResult{elapsed: time.Since(begin), next: next.Load(), t: tallies[0]}
	for _, t := range tallies[1:] {
		res.t.merge(t)
	}
	if wd.count > 0 {
		// Each client drew one index past the count before stopping.
		res.next = wd.start + wd.count
	}
	return res
}

// warmAll serves every pre-synthesized problem once, spread over the
// clients, so the window that follows starts from a full cache.
func warmAll(h http.Handler, wl *traffic, chk *checker, clients int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			for {
				slot := int(next.Add(1) - 1)
				if slot >= len(wl.bodies) {
					return
				}
				ref := wl.refForSlot(slot)
				c.do(h, "POST", endpointPaths[ref.ep], "", wl.body(ref))
				chk.check(ref, c.w.status, c.w.buf)
			}
		}()
	}
	wg.Wait()
}

// parsePhases reads an X-Solve-Phases header
// ("lattice=52µs;candidates=110µs;...;total=3.2ms").
func parsePhases(v string) (out [obs.NumPhases]time.Duration) {
	for _, kv := range strings.Split(v, ";") {
		name, val, ok := strings.Cut(kv, "=")
		if !ok {
			continue
		}
		d, err := time.ParseDuration(val)
		if err != nil {
			continue
		}
		for p := obs.Phase(0); p < obs.NumPhases; p++ {
			if p.String() == name {
				out[p] = d
			}
		}
	}
	return out
}

// serverStats is the slice of GET /v1/stats the benchmark reads.
type serverStats struct {
	Advise struct {
		Solves int64 `json:"solves"`
	} `json:"advise"`
	Cache struct {
		Entries  int   `json:"entries"`
		Capacity int   `json:"capacity"`
		Bytes    int64 `json:"bytes"`
	} `json:"cache"`
}

func fetchStats(h http.Handler) (serverStats, error) {
	c := newClient()
	c.do(h, "GET", "/v1/stats", "", nil)
	var st serverStats
	if c.w.status != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d", c.w.status)
	}
	if err := json.Unmarshal(c.w.buf, &st); err != nil {
		return st, fmt.Errorf("GET /v1/stats: %v", err)
	}
	return st, nil
}
