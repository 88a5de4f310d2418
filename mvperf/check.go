package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"

	"vmcloud/internal/compare"
	"vmcloud/internal/server"
)

// maxMessages bounds how many failure descriptions a checker keeps.
const maxMessages = 8

// checker verifies every response of a run: status 200, well-formed
// wire JSON, and the same bytes for every response to one problem —
// whether it was a hit, a miss, coalesced, or re-solved after an
// eviction. It keeps one hash per problem; the first response seen for
// a problem is fully validated and every later one must hash equal.
type checker struct {
	wl    *traffic
	fixed []atomic.Uint64 // per problem slot; 0 = not seen yet
	mu    sync.Mutex      // guards msgs
	msgs  []string

	statusFailures atomic.Int64
	mismatches     atomic.Int64
}

var bodySeed = maphash.MakeSeed()

func newChecker(wl *traffic) *checker {
	return &checker{wl: wl, fixed: make([]atomic.Uint64, wl.population)}
}

// responseHash is never 0, which marks an unseen slot.
func responseHash(body []byte) uint64 { return maphash.Bytes(bodySeed, body) | 1 }

func (c *checker) fail(counter *atomic.Int64, format string, args ...any) {
	counter.Add(1)
	c.mu.Lock()
	if len(c.msgs) < maxMessages {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// check verifies one response to ref and reports whether it passed.
func (c *checker) check(ref reqRef, status int, body []byte) bool {
	if status != http.StatusOK {
		c.fail(&c.statusFailures, "%s problem %d: status %d: %.200s", ref.ep, ref.id, status, body)
		return false
	}
	h := responseHash(body)
	prev, first := c.record(ref.slot, h)
	if first {
		if err := validateWire(ref.ep, body); err != nil {
			c.fail(&c.mismatches, "%s problem %d: %v", ref.ep, ref.id, err)
			return false
		}
		return true
	}
	if prev != h {
		c.fail(&c.mismatches, "%s problem %d: response differs from the first response to the same problem", ref.ep, ref.id)
		return false
	}
	return true
}

// record stores h as the slot's expected hash unless one is stored,
// returning the stored hash and whether h is the first.
func (c *checker) record(slot int, h uint64) (uint64, bool) {
	if c.fixed[slot].CompareAndSwap(0, h) {
		return h, true
	}
	return c.fixed[slot].Load(), false
}

// expected returns the slot's recorded hash (0 if never seen).
func (c *checker) expected(slot int) uint64 { return c.fixed[slot].Load() }

// seen lists every slot with a recorded response, in slot order.
func (c *checker) seen() []int {
	var out []int
	for i := range c.fixed {
		if c.fixed[i].Load() != 0 {
			out = append(out, i)
		}
	}
	return out
}

func (c *checker) failures() int64 { return c.statusFailures.Load() + c.mismatches.Load() }

func (c *checker) messages() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.msgs...)
}

// validateWire decodes body as the endpoint's wire response, rejecting
// unknown fields, checks that it carries a result, and re-encodes it:
// the re-encoding must reproduce the body byte for byte.
func validateWire(ep endpoint, body []byte) error {
	if len(body) == 0 || body[len(body)-1] != '\n' {
		return fmt.Errorf("response is not newline-terminated")
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var v any
	switch ep {
	case epAdvise:
		var r server.AdviseResponse
		if err := dec.Decode(&r); err != nil {
			return fmt.Errorf("decode advise response: %v", err)
		}
		if r.Recommendation == nil && len(r.Pareto) == 0 {
			return fmt.Errorf("advise response carries no recommendation")
		}
		if r.Degraded {
			return fmt.Errorf("advise response is degraded")
		}
		v = r
	case epCompare:
		var r compare.ComparisonJSON
		if err := dec.Decode(&r); err != nil {
			return fmt.Errorf("decode compare response: %v", err)
		}
		if len(r.Configs) == 0 || len(r.Winners) == 0 || r.Report == "" {
			return fmt.Errorf("compare response carries no result")
		}
		if r.Degraded {
			return fmt.Errorf("compare response is degraded")
		}
		v = r
	case epSweep:
		var r compare.SweepJSON
		if err := dec.Decode(&r); err != nil {
			return fmt.Errorf("decode sweep response: %v", err)
		}
		if len(r.Cells) == 0 {
			return fmt.Errorf("sweep response carries no cells")
		}
		if r.Degraded {
			return fmt.Errorf("sweep response is degraded")
		}
		v = r
	}
	if dec.More() {
		return fmt.Errorf("trailing data after the response object")
	}
	again, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("re-encode: %v", err)
	}
	if !bytes.Equal(append(again, '\n'), body) {
		return fmt.Errorf("response does not round-trip through its wire type")
	}
	return nil
}

// resolveSample re-solves a seeded sample of the problems the run
// served, perEndpoint of each endpoint, on a fresh server, and checks
// each answer against the bytes the run recorded. It returns how many
// it compared.
func (c *checker) resolveSample(seed int64, perEndpoint int) int {
	byEP := make([][]int, numEndpoints)
	for _, slot := range c.seen() {
		ep := c.wl.refForSlot(slot).ep
		byEP[ep] = append(byEP[ep], slot)
	}
	rng := rand.New(rand.NewSource(seed))
	fresh := server.New(server.Options{})
	defer fresh.Close()
	cl := newClient()
	n := 0
	for _, slots := range byEP {
		rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
		for _, slot := range slots[:min(perEndpoint, len(slots))] {
			ref := c.wl.refForSlot(slot)
			cl.do(fresh, "POST", endpointPaths[ref.ep], "", c.wl.body(ref))
			n++
			if cl.w.status != http.StatusOK {
				c.fail(&c.statusFailures, "fresh server: %s problem %d: status %d", ref.ep, ref.id, cl.w.status)
				continue
			}
			if responseHash(cl.w.buf) != c.expected(slot) {
				c.fail(&c.mismatches, "fresh server: %s problem %d: re-solved response differs from the served one", ref.ep, ref.id)
			}
		}
	}
	return n
}
