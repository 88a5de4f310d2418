package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"vmcloud/internal/server"
)

// stream renders the first n requests of a workload's stream.
func stream(t *testing.T, name string, seed int64, n int) []byte {
	t.Helper()
	sp, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w := newTraffic(sp, seed)
	if err := w.synthesize(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for i := 0; i < n; i++ {
		ref := w.at(uint64(i))
		out.WriteString(endpointPaths[ref.ep])
		out.WriteByte(' ')
		out.Write(w.body(ref))
		out.WriteByte('\n')
	}
	return out.Bytes()
}

func TestSameSeedSameStream(t *testing.T) {
	for _, sp := range specs {
		a := stream(t, sp.name, 7, 2000)
		if b := stream(t, sp.name, 7, 2000); !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", sp.name)
		}
		if c := stream(t, sp.name, 8, 2000); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", sp.name)
		}
	}
}

func TestStreamFollowsMix(t *testing.T) {
	for _, sp := range specs {
		w := newTraffic(sp, 3)
		var counts [numEndpoints]int
		const n = 100_000
		for i := uint64(0); i < n; i++ {
			counts[w.at(i).ep]++
		}
		for ep, c := range counts {
			want := float64(n) * float64(mix[ep]) / float64(w.mixTotal)
			if got := float64(c); got != want {
				t.Errorf("%s: %d %s requests, want %.0f", sp.name, c, endpoint(ep), want)
			}
		}
	}
}

func TestSynthesizeChecksDistinctness(t *testing.T) {
	sp, _ := specByName("churn_mix")
	w := newTraffic(sp, 5)
	if err := w.synthesize(); err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	if len(w.bodies) != sp.population {
		t.Fatalf("%d bodies, want %d", len(w.bodies), sp.population)
	}
	keys := append([]uint64(nil), w.canon...)
	keys[3] = keys[1]
	if err := distinct(keys); err == nil {
		t.Error("distinct accepted a planted duplicate")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	h := newLatHist()
	for i := 1; i <= 200; i++ {
		h.add(time.Duration(i))
	}
	for _, tc := range []struct {
		p      float64
		want   time.Duration
		wantOK bool
	}{
		{0.50, 100, true},
		{0.95, 190, true},  // rank 190, 10 beyond
		{0.96, 192, false}, // rank 192, 8 beyond
		{1.00, 200, false},
	} {
		got, ok := h.percentile(tc.p)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("p%.0f = %v (ok %v), want %v (ok %v)", 100*tc.p, got, ok, tc.want, tc.wantOK)
		}
	}

	// Slow samples are kept verbatim and ranked after the fine ones.
	h = newLatHist()
	for i := 0; i < 30; i++ {
		h.add(time.Duration(i+1) * time.Millisecond)
		h.add(time.Duration(i + 1))
	}
	if got, _ := h.percentile(0.75); got != 15*time.Millisecond {
		t.Errorf("p75 of mixed sample = %v, want 15ms", got)
	}
	if supportsP95(199) || !supportsP95(200) {
		t.Error("supportsP95: want 200 samples to be the least that leave 10 beyond the p95")
	}
	if _, ok := newLatHist().percentile(0.5); ok {
		t.Error("empty sample reported a percentile")
	}
}

func TestPercentileMetricPrintsCounts(t *testing.T) {
	h := newLatHist()
	for i := 1; i <= 100; i++ {
		h.add(time.Duration(i) * time.Millisecond)
	}
	var m metrics
	if err := m.setPercentile("x_p50_ms", h, 0.5); err != nil {
		t.Errorf("p50 of 100 samples: %v", err)
	}
	if got := m.byKey["x_p50_ms"]; got.Value != 50 || got.Unit != "ms" || got.note != "(n=100, 50 beyond)" {
		t.Errorf("p50 metric = %+v", got)
	}
	if err := m.setPercentile("x_p95_ms", h, 0.95); err == nil {
		t.Error("p95 with 5 samples beyond was accepted")
	}
	if got := m.byKey["x_p95_ms"].note; got != "(n=100, 5 beyond)" {
		t.Errorf("p95 note = %q", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},    // overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 120},   // runs past root
		{Name: "a1", Parent: 1, Start: 15, End: 20},   // under a
		{Name: "b", Parent: -1, Start: 200, End: 210}, // a second root
	}
	want := []time.Duration{40, 25, 30, 30, 5, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s #%d) = %d, want %d", spans[i].Name, i, got[i], want[i])
		}
	}
	lt := byName(spans)
	if b := lt["b"]; b.calls != 2 || b.self != 40 || b.meanMicros() != 0.02 {
		t.Errorf("byName[b] = %+v", b)
	}
}

func TestCheckerRejectsMismatch(t *testing.T) {
	sp, _ := specByName("hot_mix")
	w := newTraffic(sp, 9)
	if err := w.synthesize(); err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Options{})
	defer srv.Close()
	chk := newChecker(w)
	c := newClient()
	serve := func(slot int) (reqRef, []byte) {
		ref := w.refForSlot(slot)
		c.do(srv, "POST", endpointPaths[ref.ep], "", w.body(ref))
		if c.w.status != 200 {
			t.Fatalf("slot %d: status %d: %s", slot, c.w.status, c.w.buf)
		}
		return ref, append([]byte(nil), c.w.buf...)
	}
	a, bodyA := serve(0)
	b, bodyB := serve(1)
	if !chk.check(a, 200, bodyA) || !chk.check(a, 200, bodyA) || !chk.check(b, 200, bodyB) {
		t.Fatalf("valid responses rejected: %v", chk.messages())
	}
	// Another problem's (valid) response planted on problem a.
	if chk.check(a, 200, bodyB) {
		t.Error("mismatched response accepted")
	}
	if chk.mismatches.Load() != 1 {
		t.Errorf("mismatches = %d, want 1", chk.mismatches.Load())
	}
	// A first response that is not the endpoint's wire form.
	c2, _ := serve(2)
	if chk.check(c2, 200, []byte(`{"scenario":"mv1","extra":1}`+"\n")) {
		t.Error("malformed first response accepted")
	}
	if chk.check(b, 503, []byte(`{"error":"x"}`)) || chk.statusFailures.Load() != 1 {
		t.Error("non-200 response accepted")
	}
	if n := len(chk.messages()); n != 3 {
		t.Errorf("%d failure messages, want 3: %v", n, chk.messages())
	}
}

func TestValidateWireRoundTrip(t *testing.T) {
	sp, _ := specByName("churn_mix")
	w := newTraffic(sp, 4)
	if err := w.synthesize(); err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Options{})
	defer srv.Close()
	c := newClient()
	seen := map[endpoint]bool{}
	for n := uint64(0); len(seen) < int(numEndpoints); n++ {
		ref := w.at(n)
		if seen[ref.ep] {
			continue
		}
		seen[ref.ep] = true
		c.do(srv, "POST", endpointPaths[ref.ep], "", w.body(ref))
		if err := validateWire(ref.ep, c.w.buf); err != nil {
			t.Errorf("%s: %v", ref.ep, err)
		}
		trimmed := bytes.TrimSuffix(c.w.buf, []byte("\n"))
		if err := validateWire(ref.ep, trimmed); err == nil || !strings.Contains(err.Error(), "newline") {
			t.Errorf("%s: unterminated body accepted (%v)", ref.ep, err)
		}
	}
}

// TestWindowChecksConcurrently drives a small warmed workload from two
// clients at once; run it under -race.
func TestWindowChecksConcurrently(t *testing.T) {
	sp := spec{name: "tiny", population: 12, warmAll: true}
	w := newTraffic(sp, 2)
	if err := w.synthesize(); err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Options{})
	defer srv.Close()
	chk := newChecker(w)
	warmAll(srv, w, chk, 2)
	res := window{h: srv, wl: w, chk: chk, count: 2000, clients: 2}.run()
	if res.t.attempted != 2000 || res.next != 2000 {
		t.Errorf("attempted %d, next %d, want 2000 each", res.t.attempted, res.next)
	}
	if hits := res.t.count(outHit); hits != 2000 {
		t.Errorf("%d hits after warm-up, want 2000", hits)
	}
	if chk.failures() != 0 {
		t.Errorf("failures: %v", chk.messages())
	}
	if len(chk.seen()) != sp.population {
		t.Errorf("%d problems seen, want %d", len(chk.seen()), sp.population)
	}
}

func TestStreamStratifiesPopularity(t *testing.T) {
	sp, _ := specByName("churn_mix")
	w := newTraffic(sp, 6)
	// Every run of strata consecutive advise draws takes one draw from
	// each popularity band: the rank-0 problem (more than one band's
	// worth of probability) appears in every run.
	var k, runsWithTop int
	top := false
	for n := uint64(0); k < 100*strata; n++ {
		ref := w.at(n)
		if ref.ep != epAdvise {
			continue
		}
		top = top || ref.id == 0
		k++
		if k%strata == 0 {
			if top {
				runsWithTop++
			}
			top = false
		}
	}
	if runsWithTop != 100 {
		t.Errorf("rank 0 drawn in %d of 100 runs, want all", runsWithTop)
	}
}

// TestMakeUpIsSeedFree checks the catalogue: every seed's population
// holds the same problems in each band of popularity ranks, and the
// catalogue holds each advise kind and dataset size at its share.
func TestMakeUpIsSeedFree(t *testing.T) {
	sp, _ := specByName("churn_mix")
	bands := func(seed int64) []string {
		w := newTraffic(sp, seed)
		if err := w.synthesize(); err != nil {
			t.Fatal(err)
		}
		var out []string
		for ep := endpoint(0); ep < numEndpoints; ep++ {
			for start := 0; start < len(w.cdfs[ep]); start += bandSize {
				var band []string
				for id := start; id < min(start+bandSize, len(w.cdfs[ep])); id++ {
					band = append(band, string(w.body(reqRef{ep: ep, id: id, slot: w.offsets[ep] + id})))
				}
				sort.Strings(band)
				out = append(out, strings.Join(band, "\n"))
			}
		}
		return out
	}
	one := bands(1)
	for seed := int64(2); seed <= 3; seed++ {
		if !reflect.DeepEqual(bands(seed), one) {
			t.Errorf("seed %d: a band of ranks holds other problems than under seed 1", seed)
		}
	}
	// The first band: 36 advise problems.
	kinds := map[string]int{}
	rows := map[int64]int{}
	for _, b := range strings.Split(one[0], "\n") {
		var r struct {
			Scenario string `json:"scenario"`
			Solver   string `json:"solver"`
			FactRows int64  `json:"fact_rows"`
		}
		if err := json.Unmarshal([]byte(b), &r); err != nil {
			t.Fatal(err)
		}
		kinds[r.Scenario+" "+r.Solver]++
		rows[r.FactRows/5_000_000]++
	}
	want := map[string]int{"mv1 ": 6, "mv2 ": 6, "mv3 ": 6, "pareto ": 6, "mv1 search": 4, "mv2 search": 4, "mv3 search": 4}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("advise kinds in the first band %v, want %v", kinds, want)
	}
	if !reflect.DeepEqual(rows, map[int64]int{1: 9, 2: 9, 3: 9, 4: 9}) {
		t.Errorf("dataset sizes in the first band %v, want 9 of each", rows)
	}
}
