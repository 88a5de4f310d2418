package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"sort"

	"vmcloud/internal/compare"
	"vmcloud/internal/pricing"
	"vmcloud/internal/server"
)

// endpoint indexes the three POST endpoints the benchmark drives.
type endpoint int

const (
	epAdvise endpoint = iota
	epCompare
	epSweep
	numEndpoints
)

var (
	endpointNames = [numEndpoints]string{"advise", "compare", "sweep"}
	endpointPaths = [numEndpoints]string{"/v1/advise", "/v1/compare", "/v1/sweep"}
)

func (e endpoint) String() string { return endpointNames[e] }

// spec describes one workload: the traffic shape the benchmark
// generates from a seed.
type spec struct {
	name string
	// population is the number of distinct problems requests repeat
	// over.
	population int
	// respell is the share of requests sent in an alternate but
	// equivalent spelling (an explicit default field), which misses the
	// raw-body cache and must canonicalize to the same response.
	respell float64
	// warmAll serves every problem once before measuring; warmRequests
	// instead replays that many requests of the stream itself.
	warmAll      bool
	warmRequests int
}

// mix weights advise:compare:sweep on every workload: the load
// generator's default, cheap point advisories with occasional grid
// studies.
var mix = [numEndpoints]int{8, 1, 1}

// cacheCapacity is the server's default response-cache entry count;
// the workloads are sized against it and the run checks the live value.
const cacheCapacity = 256

// zipfSkew is the popularity skew over each endpoint's problems, the
// same on every endpoint. At 1.2 about five requests in six hit on
// churn_mix, so each endpoint's p50 is a hit whose client did not just
// run a solve; README.md gives the measurements behind the choice.
const zipfSkew = 1.2

var specs = []spec{
	{
		// Only the hit path runs: solver changes must show nothing.
		name:       "hot_mix",
		population: 160,
		warmAll:    true,
	},
	{
		// Hits beside inserts, evictions and coalescing; the only
		// workload that runs solvers, search among them, while measured.
		name:         "churn_mix",
		population:   4 * cacheCapacity,
		respell:      0.1,
		warmRequests: 2 * cacheCapacity,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// reqRef identifies one request of a stream: which problem it asks
// and in which spelling.
type reqRef struct {
	ep       endpoint
	id       int // problem id, unique within the endpoint
	spelling int // 0 canonical-order spelling, 1 alternate spelling
	slot     int // index of the problem in the expected-response table
}

// traffic is a spec bound to a seed: the problem bodies and the
// request stream, both pure functions of (spec, seed).
type traffic struct {
	spec
	seed uint64
	// cdfs are each endpoint's Zipf CDF over its problems; offsets map
	// (endpoint, id) to a slot.
	cdfs    [numEndpoints][]float64
	offsets [numEndpoints]int
	// bodies[slot][spelling] is every problem in both spellings.
	bodies [][2][]byte
	// canon holds a hash of each synthesized problem's canonical form,
	// the evidence behind the distinctness check.
	canon []uint64
	// mixTotal is the sum of the mix weights; blockEP lists a block's
	// endpoints, mix[e] of endpoint e from firstSlot[e] on, and units
	// the multipliers that permute a block (those coprime to mixTotal).
	mixTotal  int
	blockEP   []endpoint
	firstSlot [numEndpoints]int
	units     []int
}

// newTraffic binds a spec to a seed. It does no synthesis; see
// synthesize.
func newTraffic(s spec, seed int64) *traffic {
	w := &traffic{spec: s, seed: uint64(seed)}
	for e, m := range mix {
		w.firstSlot[e] = w.mixTotal
		w.mixTotal += m
		for i := 0; i < m; i++ {
			w.blockEP = append(w.blockEP, endpoint(e))
		}
	}
	for a := 1; a <= w.mixTotal; a++ {
		if gcd(a, w.mixTotal) == 1 {
			w.units = append(w.units, a)
		}
	}
	var pops [numEndpoints]int
	pops[epAdvise] = s.population
	for e := epCompare; e < numEndpoints; e++ {
		pops[e] = s.population * mix[e] / w.mixTotal
		pops[epAdvise] -= pops[e]
	}
	off := 0
	for e := endpoint(0); e < numEndpoints; e++ {
		w.offsets[e] = off
		off += pops[e]
		w.cdfs[e] = zipfCDF(pops[e], zipfSkew)
	}
	return w
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// zipfCDF is the cumulative distribution of ranks 0..n-1 with weight
// 1/(rank+1)^s.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	total := 0.0
	for r := range cdf {
		total += 1 / math.Pow(float64(r+1), s)
		cdf[r] = total
	}
	for r := range cdf {
		cdf[r] /= total
	}
	return cdf
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// well-mixed hash of one word.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to [0,1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// strata is how many consecutive popularity draws of one endpoint are
// stratified together.
const strata = 32

// at returns the n-th request of the stream. It is a pure function of
// (spec, seed, n), so concurrent clients can draw from a shared counter
// and the sequence of inputs never depends on scheduling.
//
// The stream is stratified twice, so that a run's make-up does not
// drift with the seed: each block of mixTotal consecutive requests
// holds exactly mix[e] requests of endpoint e, in an order permuted per
// block; and each run of strata consecutive draws of one endpoint takes
// one popularity quantile from each of strata equal bands, in an order
// permuted per run.
func (w *traffic) at(n uint64) reqRef {
	m := uint64(w.mixTotal)
	block, pos := n/m, n%m
	hb := splitmix64(w.seed ^ splitmix64(block) ^ 0x6a09e667f3bcc909)
	slot := (uint64(w.units[hb%uint64(len(w.units))])*pos + hb>>32) % m
	ep := w.blockEP[slot]
	// k counts this endpoint's draws: mix[ep] per block.
	k := block*uint64(mix[ep]) + slot - uint64(w.firstSlot[ep])
	hs := splitmix64(w.seed ^ splitmix64(k/strata) ^ uint64(ep)<<56 ^ 0xbb67ae8584caa73b)
	band := ((hs|1)*(k%strata) + hs>>40) % strata
	h := splitmix64(w.seed ^ splitmix64(n))
	u := (float64(band) + unit(h)) / strata
	cdf := w.cdfs[ep]
	id := sort.Search(len(cdf), func(i int) bool { return cdf[i] > u })
	if id == len(cdf) {
		id--
	}
	sp := 0
	if unit(splitmix64(h)) < w.respell {
		sp = 1
	}
	return reqRef{ep: ep, id: id, spelling: sp, slot: w.offsets[ep] + id}
}

// body returns the request body for ref.
func (w *traffic) body(ref reqRef) []byte { return w.bodies[ref.slot][ref.spelling] }

// refForSlot maps an expected-response slot back to its problem.
func (w *traffic) refForSlot(slot int) reqRef {
	ep := numEndpoints - 1
	for ep > 0 && slot < w.offsets[ep] {
		ep--
	}
	return reqRef{ep: ep, id: slot - w.offsets[ep], slot: slot}
}

// rowsBase spaces the problem families' dataset sizes; the problem id
// is added on top, so two problems of one endpoint never share a
// fact_rows value (and so never a canonical form) while ids stay below
// the spacing.
var rowsBase = [...]int64{5_000_000, 10_000_000, 15_000_000, 20_000_000}

const maxProblemID = 5_000_000

// adviseKinds is the make-up of advise problems, one block of 18
// consecutive catalogue problems: the four knapsack scenarios evenly,
// as the repository's load generator rotates them, and a minority of
// one in three solved with "solver":"search" over mv1, mv2 and mv3.
// Search is kept off pareto because a search pareto sweep costs
// hundreds of milliseconds and would swamp the advise tail.
var adviseKinds = [...]struct {
	scenario string
	search   bool
}{
	{"mv1", false}, {"mv1", false}, {"mv1", false},
	{"mv2", false}, {"mv2", false}, {"mv2", false},
	{"mv3", false}, {"mv3", false}, {"mv3", false},
	{"pareto", false}, {"pareto", false}, {"pareto", false},
	{"mv1", true}, {"mv1", true},
	{"mv2", true}, {"mv2", true},
	{"mv3", true}, {"mv3", true},
}

// catalogueSeed seeds the problem catalogue, which is the same in
// every run. A run's seed decides which problem sits at which
// popularity rank, within a band of bandSize ranks, and the order of
// requests. So each band of ranks holds the same problems whatever the
// seed, and the mix of costly and cheap problems a run misses on does
// not swing with it.
const catalogueSeed = 0x6d7670657266

// bandSize holds every advise kind twice and every dataset size nine
// times.
const bandSize = 36

// problemOf maps the problem at popularity rank id to its catalogue
// index: a seeded permutation within the rank's band.
func (w *traffic) problemOf(ep endpoint, id int) int {
	start := id / bandSize * bandSize
	size := min(bandSize, len(w.cdfs[ep])-start)
	return start + permutation(w.seed^uint64(ep)<<56, uint64(id/bandSize), size)[id-start]
}

// build synthesizes the body of the problem at popularity rank id.
// Each parameter of catalogue problem j is drawn by stratum over the
// endpoint's catalogue, so the catalogue holds each parameter value at
// its share in every block of consecutive problems.
func (w *traffic) build(ep endpoint, id, spelling int) []byte {
	j := w.problemOf(ep, id)
	param := func(k uint64, n int) int { return stratum(catalogueSeed^uint64(ep)<<56^k<<48, j, n) }
	rows := rowsBase[param(1, len(rowsBase))] + int64(j)
	queries := 3 + param(2, 8)
	freq := 10 + param(3, 22)
	budget := 20 + param(4, 26)
	names := pricing.ProviderNames()
	i := param(5, len(names))
	a, b := names[i], names[(i+1)%len(names)]
	if a > b {
		a, b = b, a
	}
	var buf bytes.Buffer
	buf.WriteByte('{')
	switch ep {
	case epAdvise:
		if spelling == 1 {
			buf.WriteString(`"months":1,`)
		}
		kind := adviseKinds[param(6, len(adviseKinds))]
		switch kind.scenario {
		case "mv1":
			fmt.Fprintf(&buf, `"scenario":"mv1","budget":%d,`, budget)
		case "mv2":
			fmt.Fprintf(&buf, `"scenario":"mv2","limit":"%dh",`, 2+param(7, 5))
		case "mv3":
			fmt.Fprintf(&buf, `"scenario":"mv3","alpha":0.%02d,`, 5+param(8, 91))
		default:
			fmt.Fprintf(&buf, `"scenario":"pareto","steps":%d,`, 3+param(9, 5))
		}
		if kind.search {
			fmt.Fprintf(&buf, `"solver":"search","candidate_budget":16,"seed":%d,`, 1+param(10, 1000))
		}
	case epCompare:
		if spelling == 1 {
			buf.WriteString(`"instance_types":["small"],`)
		}
		fmt.Fprintf(&buf, `"budget":%d,"limit":"%dh","providers":[%q,%q],"fleet_sizes":[3,5],`,
			budget, 2+param(7, 5), a, b)
	case epSweep:
		if spelling == 1 {
			buf.WriteString(`"instance_types":["small"],`)
		}
		fmt.Fprintf(&buf, `"budget":%d,"providers":[%q,%q],"fleet_sizes":[3,5],`, budget, a, b)
	}
	fmt.Fprintf(&buf, `"fact_rows":%d,"queries":%d,"frequency":%d}`, rows, queries, freq)
	return buf.Bytes()
}

// stratum places j in one of size bands: each block of size
// consecutive indexes takes every band once, in an order drawn per
// block from seed.
func stratum(seed uint64, j, size int) int {
	return permutation(seed, uint64(j/size), size)[j%size]
}

// permutation is a shuffle of 0..size-1 drawn from (seed, block).
func permutation(seed, block uint64, size int) []int {
	h := splitmix64(seed ^ splitmix64(block))
	perm := make([]int, size)
	for i := range perm {
		perm[i] = i
	}
	for i := size - 1; i > 0; i-- {
		h = splitmix64(h)
		k := int(h % uint64(i+1))
		perm[i], perm[k] = perm[k], perm[i]
	}
	return perm
}

// synthesize builds every problem body and checks the
// workload's input properties: each problem canonically distinct from
// every other, and each alternate spelling canonically equal to its
// problem.
func (w *traffic) synthesize() error {
	n := w.population
	w.bodies = make([][2][]byte, n)
	w.canon = make([]uint64, n)
	for slot := range w.bodies {
		ref := w.refForSlot(slot)
		if ref.id >= maxProblemID {
			return fmt.Errorf("problem id %d exceeds %d", ref.id, maxProblemID)
		}
		b := w.build(ref.ep, ref.id, 0)
		key, err := canonicalHash(ref.ep, b)
		if err != nil {
			return fmt.Errorf("%s problem %d: %v", ref.ep, ref.id, err)
		}
		w.bodies[slot][0], w.canon[slot] = b, key
		if w.respell > 0 {
			alt := w.build(ref.ep, ref.id, 1)
			altKey, err := canonicalHash(ref.ep, alt)
			if err != nil {
				return fmt.Errorf("%s problem %d respelled: %v", ref.ep, ref.id, err)
			}
			if altKey != key {
				return fmt.Errorf("%s problem %d: respelling %s is not canonically equal to %s", ref.ep, ref.id, alt, b)
			}
			w.bodies[slot][1] = alt
		}
	}
	return distinct(w.canon)
}

// distinct reports the first repeated canonical hash.
func distinct(keys []uint64) error {
	seen := make(map[uint64]int, len(keys))
	for i, k := range keys {
		if j, ok := seen[k]; ok {
			return fmt.Errorf("problems %d and %d are canonically equal", j, i)
		}
		seen[k] = i
	}
	return nil
}

// canonSeed keys canonical-form hashes for the life of the process.
var canonSeed = maphash.MakeSeed()

// canonicalHash decodes body as the endpoint's wire request, applies
// the wire normalization the server applies before keying its cache,
// and hashes the endpoint plus the normalized form. Two bodies with
// equal hashes name the same cached response.
func canonicalHash(ep endpoint, body []byte) (uint64, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var norm any
	switch ep {
	case epAdvise:
		var r server.AdviseRequest
		if err := dec.Decode(&r); err != nil {
			return 0, err
		}
		if err := r.ConfigJSON.Normalize(); err != nil {
			return 0, err
		}
		norm = r
	case epCompare:
		var r compare.RequestJSON
		if err := dec.Decode(&r); err != nil {
			return 0, err
		}
		if err := r.Normalize(); err != nil {
			return 0, err
		}
		norm = r
	case epSweep:
		var r compare.SweepRequestJSON
		if err := dec.Decode(&r); err != nil {
			return 0, err
		}
		if err := r.Normalize(); err != nil {
			return 0, err
		}
		norm = r
	}
	kb, err := json.Marshal(norm)
	if err != nil {
		return 0, err
	}
	var h maphash.Hash
	h.SetSeed(canonSeed)
	h.WriteString(endpointNames[ep])
	h.WriteByte(0)
	h.Write(kb)
	return h.Sum64(), nil
}
