// Command mvperf is the repository's benchmark. It drives the real
// internal/server handler stack in-process with seeded, generated
// traffic from closed-loop clients, checks every response, and prints
// end-to-end metrics (--trace 0) or per-layer metrics (--trace 1). The
// last line of its output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// Run it from the repository root with
//
//	bash mvperf/run.sh --workload hot_mix --seed 1 --seconds 20 --trace 0
//
// It exits 1 when a response is wrong or a workload lacks the property
// it claims, and 2 on a usage or setup error. README.md in this
// directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"vmcloud/internal/obs"
	"vmcloud/internal/server"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// clients is how many closed-loop callers drive the server: one per
// CPU of the reference machine. setupsPerRun is how many set-ups a run
// makes; setup_s is their median and the last one is measured.
const (
	clients      = 2
	setupsPerRun = 5
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mvperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: hot_mix or churn_mix")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 45, "measurement time of one run")
	fs.IntVar(&o.trace, "trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specByName(o.workload)
	if !ok || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(stderr, "mvperf: bad arguments (workload %q, seconds %g, trace %d)\n", o.workload, o.seconds, o.trace)
		return 2
	}
	fmt.Fprintf(stdout, "mvperf workload=%s seed=%d seconds=%g trace=%d clients=%d gomaxprocs=%d\n",
		sp.name, o.seed, o.seconds, o.trace, clients, runtime.GOMAXPROCS(0))
	var (
		res result
		err error
	)
	if o.trace == 0 {
		res, err = endToEnd(sp, o, stdout)
	} else {
		res, err = layered(sp, o, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "mvperf: %v\n", err)
		return 2
	}
	return res.print(stdout)
}

// result is what a run prints.
type result struct {
	m         metrics
	attempted int
	failed    int64
	problems  []string
}

func (r result) print(w io.Writer) int {
	for _, name := range r.m.names {
		mt := r.m.byKey[name]
		fmt.Fprintf(w, "%-34s %14.6g %-9s %s\n", name, mt.Value, mt.Unit, mt.note)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "FAIL %s\n", p)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, r.m.byKey}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(w, "FAIL encode result: %v\n", err)
		return 2
	}
	fmt.Fprintf(w, "%s\n", b)
	if !out.Correct {
		return 1
	}
	return 0
}

// env is one set-up: synthesized traffic, a fresh server, a checker,
// and the stream position measurement starts from.
type env struct {
	wl   *traffic
	srv  *server.Server
	chk  *checker
	next uint64
}

// setup synthesizes the workload, builds a server and warms its cache.
func setup(sp spec, seed int64) (*env, error) {
	wl := newTraffic(sp, seed)
	if err := wl.synthesize(); err != nil {
		return nil, fmt.Errorf("synthesize %s: %w", sp.name, err)
	}
	e := &env{wl: wl, srv: server.New(server.Options{}), chk: newChecker(wl)}
	switch {
	case sp.warmAll:
		warmAll(e.srv, wl, e.chk, clients)
	case sp.warmRequests > 0:
		res := window{h: e.srv, wl: wl, chk: e.chk, count: uint64(sp.warmRequests), clients: clients}.run()
		e.next = res.next
	}
	return e, nil
}

// setups runs n set-ups, returning the last and the median set-up
// time with every sample.
func setups(sp spec, seed int64, n int) (*env, float64, []float64, error) {
	var (
		last  *env
		times []float64
	)
	for i := 0; i < n; i++ {
		if last != nil {
			last.srv.Close()
			last = nil
			runtime.GC()
		}
		t0 := time.Now()
		e, err := setup(sp, seed)
		if err != nil {
			return nil, 0, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = e
	}
	sorted := append([]float64(nil), times...)
	runtime.GC()
	return last, median(sorted), times, nil
}

// checkProperty verifies the property a workload claims before it is
// measured: a hot population fits the live cache, a churn population
// overflows it.
func checkProperty(sp spec, e *env) error {
	st, err := fetchStats(e.srv)
	if err != nil {
		return err
	}
	capacity := st.Cache.Capacity
	switch {
	case sp.warmAll && sp.population > capacity:
		return fmt.Errorf("%s: population %d does not fit the %d-entry cache", sp.name, sp.population, capacity)
	case sp.warmRequests > 0 && sp.population <= capacity:
		return fmt.Errorf("%s: population %d does not exceed the %d-entry cache", sp.name, sp.population, capacity)
	}
	return nil
}

// checkRealized verifies the property in what a window observed: every
// request of a warmed hot workload hit.
func checkRealized(sp spec, t *tally) []string {
	if hits := t.count(outHit); sp.warmAll && hits != t.attempted {
		return []string{fmt.Sprintf("%s: %d of %d requests hit after warm-up, want all", sp.name, hits, t.attempted)}
	}
	return nil
}

// resolveSamplePerEndpoint is how many served problems per endpoint a
// run re-solves on a fresh server.
const resolveSamplePerEndpoint = 2

func endToEnd(sp spec, o options, stdout io.Writer) (result, error) {
	baseHeap := heapAfterGC()
	e, setupMedian, setupTimes, err := setups(sp, o.seed, setupsPerRun)
	if err != nil {
		return result{}, err
	}
	if err := checkProperty(sp, e); err != nil {
		return result{problems: []string{err.Error()}, attempted: 1, failed: 0, m: metrics{}}, nil
	}
	dur := time.Duration(o.seconds * float64(time.Second))
	w := window{h: e.srv, wl: e.wl, chk: e.chk, start: e.next, dur: dur, clients: clients, extend: true}.run()
	t := w.t

	var res result
	res.attempted = t.attempted
	res.problems = checkRealized(sp, t)
	resolved := e.chk.resolveSample(o.seed, resolveSamplePerEndpoint)

	completed := t.attempted - int(e.chk.statusFailures.Load())
	res.m.set("throughput_rps", float64(completed)/w.elapsed.Seconds(), "1/s",
		"(%d completed in %.3fs)", completed, w.elapsed.Seconds())
	for ep := endpoint(0); ep < numEndpoints; ep++ {
		for _, q := range []struct {
			name string
			p    float64
		}{{"p50", 0.50}, {"p95", 0.95}} {
			name := fmt.Sprintf("%s_%s_ms", ep, q.name)
			if err := res.m.setPercentile(name, t.lat[ep], q.p); err != nil {
				res.problems = append(res.problems, err.Error())
			}
		}
	}
	res.m.set("setup_s", setupMedian, "s", "(median of %d: %s)", len(setupTimes), joinFloats(setupTimes))

	res.failed = e.chk.failures()
	fmt.Fprintf(stdout, "responses: hit %d, miss %d, coalesced %d, stale %d; re-solved %d on a fresh server\n",
		t.count(outHit), t.count(outMiss), t.count(outCoalesced), t.count(outStale), resolved)
	fmt.Fprintf(stdout, "hit share by endpoint:")
	for ep := endpoint(0); ep < numEndpoints; ep++ {
		fmt.Fprintf(stdout, " %s %.3f", ep, share(t.outcomes[ep][outHit], t.lat[ep].n))
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "error_share %g (%d of %d not 200); mismatched responses %d\n",
		ratio(e.chk.statusFailures.Load(), int64(res.attempted)), e.chk.statusFailures.Load(), res.attempted,
		e.chk.mismatches.Load())
	res.problems = append(res.problems, e.chk.messages()...)

	// Retained heap: only the server stays live; the traffic, the
	// checker and the samples are dropped, and the heap the process
	// held before any set-up is subtracted.
	srv := e.srv
	e, w, t = nil, windowResult{}, nil
	res.m.set("retained_heap_mb", float64(heapAfterGC()-baseHeap)/(1<<20), "MiB",
		"(after two forced GCs, only the server live, less %.3f MiB held before set-up)", float64(baseHeap)/(1<<20))
	runtime.KeepAlive(srv)
	srv.Close()
	return res, nil
}

// heapAfterGC is the live heap after two collections: the first moves
// sync.Pool contents to the victim cache, the second frees them.
func heapAfterGC() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

// layered is the traced run: an untraced window and a traced window on
// fresh servers (their throughput ratio is the tracing overhead), then
// a serial replay of the traced window's cold requests, layer by layer.
func layered(sp spec, o options, stdout io.Writer) (result, error) {
	var res result
	// The untraced window, the traced window and the replay each get a
	// third of the run time, so a traced run takes as long as a plain one.
	third := time.Duration(o.seconds * float64(time.Second) / 3)

	// Untraced window: throughput and allocations per request.
	a, _, _, err := setups(sp, o.seed, 1)
	if err != nil {
		return res, err
	}
	if err := checkProperty(sp, a); err != nil {
		return result{problems: []string{err.Error()}, attempted: 1}, nil
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	wa := window{h: a.srv, wl: a.wl, chk: a.chk, start: a.next, dur: third, clients: clients}.run()
	runtime.ReadMemStats(&m1)
	res.problems = append(res.problems, checkRealized(sp, wa.t)...)
	res.problems = append(res.problems, a.chk.messages()...)
	res.attempted += wa.t.attempted
	res.failed += a.chk.failures()
	plainRPS := float64(wa.t.attempted) / wa.elapsed.Seconds()
	allocs := float64(m1.Mallocs-m0.Mallocs) / float64(wa.t.attempted)
	allocBytes := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(wa.t.attempted)
	a.srv.Close()
	a = nil

	// Traced window: outcomes, hit latency, phases of every cold solve.
	b, _, _, err := setups(sp, o.seed, 1)
	if err != nil {
		return res, err
	}
	st0, err := fetchStats(b.srv)
	if err != nil {
		return res, err
	}
	wb := window{h: b.srv, wl: b.wl, chk: b.chk, start: b.next, dur: third, clients: clients, traced: true}.run()
	st1, err := fetchStats(b.srv)
	if err != nil {
		return res, err
	}
	t := wb.t
	res.attempted += t.attempted
	res.problems = append(res.problems, checkRealized(sp, t)...)
	tracedRPS := float64(t.attempted) / wb.elapsed.Seconds()

	// Replay the distinct cold problems in the order they first missed.
	sort.Slice(t.misses, func(i, j int) bool { return t.misses[i].n < t.misses[j].n })
	var refs []reqRef
	replayed := map[int]bool{}
	for _, m := range t.misses {
		if !replayed[m.slot] {
			replayed[m.slot] = true
			ref := b.wl.refForSlot(m.slot)
			refs = append(refs, ref)
		}
	}
	rp := &replayer{log: newSpanLog(), wl: b.wl, chk: b.chk}
	begin := time.Now()
	nReplayed := 0
	for _, ref := range refs {
		if nReplayed > 0 && time.Since(begin) >= third {
			break
		}
		if err := rp.replay(ref); err != nil {
			b.chk.fail(&b.chk.mismatches, "%v", err)
		}
		nReplayed++
	}
	resolved := b.chk.resolveSample(o.seed, resolveSamplePerEndpoint)
	res.failed += b.chk.failures()
	res.problems = append(res.problems, b.chk.messages()...)
	spans := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", sp.name, o.seed))
	if err := writeSpans(spans, rp.log.spans); err != nil {
		return res, err
	}

	m := &res.m
	hitP50, _ := t.hitLat.percentile(0.5)
	m.set("server.hit_p50_us", micros(hitP50), "us", "(n=%d hits)", t.hitLat.n)
	m.set("server.allocs_per_req", allocs, "allocs/req", "(untraced window, %d requests)", wa.t.attempted)
	m.set("server.alloc_bytes_per_req", allocBytes, "B/req", "(untraced window)")
	n := t.attempted
	m.set("server.hit_share", share(t.count(outHit), n), "share", "(%d of %d)", t.count(outHit), n)
	m.set("server.coalesced_share", share(t.count(outCoalesced), n), "share", "(%d of %d)", t.count(outCoalesced), n)
	m.set("server.stale_share", share(t.count(outStale), n), "share", "(%d of %d)", t.count(outStale), n)
	solves := st1.Advise.Solves - st0.Advise.Solves
	m.set("server.solves_per_req", ratio(solves, int64(n)), "solves/req", "(%d solves, /v1/stats, over %d requests)", solves, n)
	m.set("server.cache_entries", float64(st1.Cache.Entries), "count", "(of %d, /v1/stats)", st1.Cache.Capacity)
	m.set("server.cache_mb", float64(st1.Cache.Bytes)/(1<<20), "MiB", "(responses + raw keys, /v1/stats)")

	var overhead []time.Duration
	var phaseSum [obs.NumPhases]time.Duration
	var handlerSum time.Duration
	for _, mr := range t.misses {
		overhead = append(overhead, mr.handler-mr.phases[obs.PhaseTotal])
		handlerSum += mr.handler
		for p := range phaseSum {
			phaseSum[p] += mr.phases[p]
		}
	}
	sort.Slice(overhead, func(i, j int) bool { return overhead[i] < overhead[j] })
	var missOverhead time.Duration
	if len(overhead) > 0 {
		missOverhead = overhead[nearestRank(0.5, len(overhead))-1]
	}
	m.set("server.miss_overhead_p50_us", micros(missOverhead), "us", "(handler time minus phase total, n=%d misses)", len(overhead))
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		mean := time.Duration(0)
		if len(t.misses) > 0 {
			mean = phaseSum[p] / time.Duration(len(t.misses))
		}
		m.set("phase."+p.String()+"_ms", float64(mean.Nanoseconds())/1e6, "ms", "(mean per cold solve, n=%d)", len(t.misses))
	}
	var named time.Duration
	for p := obs.Phase(0); p < obs.PhaseTotal; p++ {
		named += phaseSum[p]
	}
	m.set("phase.coverage_share", ratio(int64(named), int64(handlerSum)), "share",
		"(named phases over miss handler time; parallel cells add up)")

	lt := byName(rp.log.spans)
	compares, grids := rp.requests[epCompare], rp.requests[epCompare]+rp.requests[epSweep]
	m.set("optimizer.budget_outcome_us", lt["optimizer.budget_outcome"].meanMicros(), "us", "(n=%d)", lt["optimizer.budget_outcome"].calls)
	m.set("optimizer.budget_outcome_calls", ratio(int64(lt["optimizer.budget_outcome"].calls), int64(compares)), "calls/req",
		"(per replayed compare, n=%d)", compares)
	m.set("optimizer.mv_solve_us", lt["optimizer.mv_solve"].meanMicros(), "us", "(n=%d)", lt["optimizer.mv_solve"].calls)
	m.set("optimizer.kernel_us", lt["optimizer.kernel"].meanMicros(), "us", "(n=%d)", lt["optimizer.kernel"].calls)
	m.set("optimizer.bind_us", lt["optimizer.bind"].meanMicros(), "us", "(n=%d)", lt["optimizer.bind"].calls)
	m.set("compare.cells", ratio(int64(lt["compare.cell"].calls), int64(grids)), "cells/req",
		"(per replayed compare or sweep, n=%d)", grids)
	m.set("lattice.new_us", lt["lattice.new"].meanMicros(), "us", "(n=%d)", lt["lattice.new"].calls)
	m.set("views.candidates_us", lt["views.candidates"].meanMicros(), "us", "(n=%d)", lt["views.candidates"].calls)
	m.set("views.candidate_count", ratio(int64(rp.candidates), int64(lt["views.candidates"].calls)), "count", "(mean per call)")
	m.set("core.normalize_us", lt["core.normalize"].meanMicros(), "us", "(n=%d)", lt["core.normalize"].calls)
	m.set("core.shared_us", lt["core.shared"].meanMicros(), "us", "(n=%d)", lt["core.shared"].calls)
	m.set("search.solve_us", lt["search.solve"].meanMicros(), "us", "(n=%d)", lt["search.solve"].calls)
	m.set("search.evals", ratio(int64(rp.evals), int64(lt["search.solve"].calls)), "count", "(mean per replayed search solve)")
	m.set("compare.run_ms", lt["compare.run"].meanMicros()/1e3, "ms", "(n=%d)", lt["compare.run"].calls)
	m.set("compare.sweep_ms", lt["compare.sweep"].meanMicros()/1e3, "ms", "(n=%d)", lt["compare.sweep"].calls)
	m.set("encode.json_us", lt["encode.json"].meanMicros(), "us", "(n=%d)", lt["encode.json"].calls)
	m.set("report.render_us", lt["report.render"].meanMicros(), "us", "(n=%d)", lt["report.render"].calls)
	m.set("trace.overhead_share", 1-tracedRPS/plainRPS, "share", "(traced %.1f vs untraced %.1f req/s)", tracedRPS, plainRPS)

	fmt.Fprintf(stdout, "traced window: %d requests, %d cold solves; replayed %d of %d distinct cold problems; "+
		"re-solved %d on a fresh server; spans in %s\n", n, len(t.misses), nReplayed, len(refs), resolved, spans)
	b.srv.Close()
	return res, nil
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func share(a, n int) float64 { return ratio(int64(a), int64(n)) }
