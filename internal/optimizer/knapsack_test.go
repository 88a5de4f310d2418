package optimizer

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"vmcloud/internal/obs"
)

// bruteKnapsack maximizes value under the weight cap by enumeration.
func bruteKnapsack(values, weights []int64, cap int64) int64 {
	n := len(values)
	var best int64
	for mask := 0; mask < 1<<n; mask++ {
		var v, w int64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				v += values[i]
				w += weights[i]
			}
		}
		if w <= cap && v > best {
			best = v
		}
	}
	return best
}

func sumAt(vals []int64, idx []int) int64 {
	var s int64
	for _, i := range idx {
		s += vals[i]
	}
	return s
}

func TestKnapsack01Basic(t *testing.T) {
	values := []int64{60, 100, 120}
	weights := []int64{10, 20, 30}
	idx, err := Knapsack01(values, weights, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got := sumAt(values, idx); got != 220 {
		t.Errorf("value = %d, want 220 (items 1,2)", got)
	}
	if got := sumAt(weights, idx); got > 50 {
		t.Errorf("weight = %d exceeds capacity", got)
	}
}

func TestKnapsack01Edges(t *testing.T) {
	if idx, err := Knapsack01(nil, nil, 10); err != nil || len(idx) != 0 {
		t.Errorf("empty = %v, %v", idx, err)
	}
	if idx, err := Knapsack01([]int64{5}, []int64{3}, -1); err != nil || len(idx) != 0 {
		t.Errorf("negative cap = %v, %v", idx, err)
	}
	if idx, err := Knapsack01([]int64{5}, []int64{0}, 0); err != nil || len(idx) != 1 {
		t.Errorf("zero-weight item = %v, %v", idx, err)
	}
	if _, err := Knapsack01([]int64{1}, []int64{1, 2}, 5); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Knapsack01([]int64{-1}, []int64{1}, 5); err == nil {
		t.Error("negative value accepted")
	}
	if _, err := Knapsack01([]int64{1}, []int64{-1}, 5); err == nil {
		t.Error("negative weight accepted")
	}
}

// Regression for the dead-sentinel bug: the zero-initialized DP is the
// "weight ≤ c" formulation, where every state is reachable. These
// instances each have a unique optimum, so the exact index set is pinned
// (not just the optimal value).
func TestKnapsack01PinnedSelections(t *testing.T) {
	cases := []struct {
		name     string
		values   []int64
		weights  []int64
		capacity int64
		want     []int
	}{
		{"classic", []int64{60, 100, 120}, []int64{10, 20, 30}, 50, []int{1, 2}},
		{"skip greedy trap", []int64{10, 40, 30, 50}, []int64{5, 4, 6, 3}, 10, []int{1, 3}},
		{"only light item fits", []int64{1, 2, 3}, []int64{4, 5, 1}, 1, []int{2}},
		{"zero-weight item at zero capacity", []int64{7, 3}, []int64{0, 1}, 0, []int{0}},
		{"nothing fits", []int64{5, 6}, []int64{9, 9}, 8, nil},
	}
	for _, c := range cases {
		idx, err := Knapsack01(c.values, c.weights, c.capacity)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(idx) != len(c.want) {
			t.Errorf("%s: selected %v, want %v", c.name, idx, c.want)
			continue
		}
		for i := range idx {
			if idx[i] != c.want[i] {
				t.Errorf("%s: selected %v, want %v", c.name, idx, c.want)
				break
			}
		}
		if got, want := sumAt(c.values, idx), bruteKnapsack(c.values, c.weights, c.capacity); got != want {
			t.Errorf("%s: value %d, brute force says %d", c.name, got, want)
		}
	}
}

// Property: the DP matches brute force on random small instances.
func TestKnapsack01MatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10) + 1
		values := make([]int64, n)
		weights := make([]int64, n)
		for i := range values {
			values[i] = int64(rng.Intn(100))
			weights[i] = int64(rng.Intn(50))
		}
		cap := int64(rng.Intn(120))
		idx, err := Knapsack01(values, weights, cap)
		if err != nil {
			return false
		}
		if sumAt(weights, idx) > cap {
			return false
		}
		return sumAt(values, idx) == bruteKnapsack(values, weights, cap)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Scaled capacities stay feasible (round-up on weights) even when the DP
// table cannot hold the raw capacity. n is above enumLimit so the scaled
// DP, not the enumeration, solves it.
func TestKnapsack01ScalingStaysFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 2 * enumLimit
	dp0 := obs.KnapsackDPSolves.Value()
	values := make([]int64, n)
	weights := make([]int64, n)
	for i := range values {
		values[i] = int64(rng.Intn(1000) + 1)
		weights[i] = int64(rng.Intn(1_000_000_000) + 1) // ~$1000 in micros
	}
	cap := int64(3_000_000_000)
	idx, err := Knapsack01(values, weights, cap)
	if err != nil {
		t.Fatal(err)
	}
	if got := sumAt(weights, idx); got > cap {
		t.Errorf("scaled solution weight %d exceeds capacity %d", got, cap)
	}
	if len(idx) == 0 {
		t.Error("scaled knapsack selected nothing despite generous capacity")
	}
	if obs.KnapsackDPSolves.Value() == dp0 {
		t.Error("instance above enumLimit did not reach the DP")
	}
}

// bruteCover minimizes cost subject to gain ≥ need by enumeration.
func bruteCover(costs, gains []int64, need int64) (int64, bool) {
	n := len(costs)
	best := int64(-1)
	for mask := 0; mask < 1<<n; mask++ {
		var c, g int64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				c += costs[i]
				g += gains[i]
			}
		}
		if g >= need && (best < 0 || c < best) {
			best = c
		}
	}
	return best, best >= 0
}

func TestMinCostCoverBasic(t *testing.T) {
	costs := []int64{10, 4, 7}
	gains := []int64{5, 3, 4}
	idx, ok, err := MinCostCover(costs, gains, 7)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if got := sumAt(gains, idx); got < 7 {
		t.Errorf("gain = %d < need", got)
	}
	if got := sumAt(costs, idx); got != 11 {
		t.Errorf("cost = %d, want 11 (items 1,2)", got)
	}
}

func TestMinCostCoverEdges(t *testing.T) {
	if idx, ok, err := MinCostCover(nil, nil, 0); err != nil || !ok || len(idx) != 0 {
		t.Errorf("need 0 = %v %v %v", idx, ok, err)
	}
	if _, ok, err := MinCostCover([]int64{1}, []int64{2}, 10); err != nil || ok {
		t.Errorf("uncoverable need reported ok=%v err=%v", ok, err)
	}
	if _, _, err := MinCostCover([]int64{1}, []int64{1, 2}, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, err := MinCostCover([]int64{-1}, []int64{1}, 1); err == nil {
		t.Error("negative cost accepted")
	}
}

// Property: MinCostCover matches brute force on random small instances.
func TestMinCostCoverMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(9) + 1
		costs := make([]int64, n)
		gains := make([]int64, n)
		for i := range costs {
			costs[i] = int64(rng.Intn(100))
			gains[i] = int64(rng.Intn(40))
		}
		need := int64(rng.Intn(100))
		idx, ok, err := MinCostCover(costs, gains, need)
		if err != nil {
			return false
		}
		wantCost, wantOK := bruteCover(costs, gains, need)
		if ok != wantOK {
			return false
		}
		if !ok {
			return true
		}
		if sumAt(gains, idx) < need {
			return false
		}
		return sumAt(costs, idx) == wantCost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// With scaling, covers remain true covers. n is above enumLimit so the
// scaled DP, not the enumeration, solves it.
func TestMinCostCoverScalingStaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 2 * enumLimit
	dp0 := obs.KnapsackDPSolves.Value()
	costs := make([]int64, n)
	gains := make([]int64, n)
	for i := range costs {
		costs[i] = int64(rng.Intn(100) + 1)
		gains[i] = int64(rng.Intn(2_000_000_000) + 1_000_000_000) // ~1h in ns
	}
	need := int64(8_000_000_000)
	idx, ok, err := MinCostCover(costs, gains, need)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if got := sumAt(gains, idx); got < need {
		t.Errorf("scaled cover gain %d < need %d", got, need)
	}
	if obs.KnapsackDPSolves.Value() == dp0 {
		t.Error("instance above enumLimit did not reach the DP")
	}
}

// tieInstance draws a small, tie-heavy instance: few distinct values
// and weights, zero items included, and a bound small enough that the DP
// never scales.
func tieInstance(rng *rand.Rand, n int) (a, b []int64, bound int64) {
	a = make([]int64, n)
	b = make([]int64, n)
	for i := range a {
		a[i] = int64(rng.Intn(4))
		b[i] = int64(rng.Intn(5))
	}
	return a, b, int64(rng.Intn(4*n + 2))
}

// The enumeration returns exactly the subset the unscaled DP traceback
// picks — the smallest-mask optimum — so every selection the DP made
// without scaling is unchanged, index for index.
func TestKnapsackEnumMatchesUnscaledDP(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(12)
		if trial%100 == 0 {
			n = enumLimit // the full 2^16 walk, kept rare for speed
		}
		values, weights, capacity := tieInstance(rng, n)
		if got, want := knapsackEnum(values, weights, capacity), knapsackDP(values, weights, capacity); !slices.Equal(got, want) {
			t.Fatalf("Knapsack01(%v, %v, %d): enum %v, dp %v", values, weights, capacity, got, want)
		}
		costs, gains, need := tieInstance(rng, n)
		need++
		if total, _ := sum(gains); total < need {
			continue
		}
		dp, ok := coverDP(costs, gains, need)
		if got := coverEnum(costs, gains, need); !ok || !slices.Equal(got, dp) {
			t.Fatalf("MinCostCover(%v, %v, %d): enum %v, dp %v (ok=%v)", costs, gains, need, got, dp, ok)
		}
	}
}

// servedInstance draws items the way MV1/MV2 build them: cost deltas in
// micro-dollars ($1–$50) and time savings in nanoseconds (1 s – 10 h).
func servedInstance(rng *rand.Rand, n int) (micros, nanos []int64) {
	micros = make([]int64, n)
	nanos = make([]int64, n)
	for i := range micros {
		micros[i] = 1_000_000 + rng.Int63n(49_000_001)
		nanos[i] = 1_000_000_000 + rng.Int63n(36_000_000_000_000)
	}
	return micros, nanos
}

// At served magnitudes (where the DP used to scale) both solvers are
// exact for every n up to enumLimit.
func TestKnapsackServedRegimeIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + trial%enumLimit
		weights, values := servedInstance(rng, n)
		total, _ := sum(weights)
		capacity := rng.Int63n(total + 1)
		idx, err := Knapsack01(values, weights, capacity)
		if err != nil {
			t.Fatal(err)
		}
		if w := sumAt(weights, idx); w > capacity {
			t.Fatalf("n=%d: weight %d over capacity %d", n, w, capacity)
		}
		if got, want := sumAt(values, idx), bruteKnapsack(values, weights, capacity); got != want {
			t.Fatalf("n=%d: Knapsack01 value %d, optimum %d", n, got, want)
		}

		costs, gains := servedInstance(rng, n)
		totalGain, _ := sum(gains)
		need := 1 + rng.Int63n(totalGain)
		idx, ok, err := MinCostCover(costs, gains, need)
		if err != nil || !ok {
			t.Fatalf("n=%d: ok=%v err=%v", n, ok, err)
		}
		if g := sumAt(gains, idx); g < need {
			t.Fatalf("n=%d: gain %d under need %d", n, g, need)
		}
		if got, want := sumAt(costs, idx), mustCover(t, costs, gains, need); got != want {
			t.Fatalf("n=%d: MinCostCover cost %d, optimum %d", n, got, want)
		}
	}
}

func mustCover(t *testing.T, costs, gains []int64, need int64) int64 {
	t.Helper()
	c, ok := bruteCover(costs, gains, need)
	if !ok {
		t.Fatalf("brute force found no cover of %d", need)
	}
	return c
}

// Sums that would overflow the enumeration's int64 running totals are
// handed to the scaled DP, whose picks stay feasible.
func TestKnapsackOverflowFallsBackToDP(t *testing.T) {
	dp0 := obs.KnapsackDPSolves.Value()
	big := int64(math.MaxInt64/2 + 1)
	idx, err := Knapsack01([]int64{1, 2, 3}, []int64{big, big, 1}, big)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(idx, []int{2}) {
		t.Errorf("selected %v, want [2]", idx)
	}
	gains := []int64{big, big, big}
	idx, ok, err := MinCostCover([]int64{5, 1, 1}, gains, big)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if len(idx) == 0 || gains[idx[0]] < big {
		t.Errorf("cover %v does not reach the need", idx)
	}
	if got := obs.KnapsackDPSolves.Value() - dp0; got != 2 {
		t.Errorf("%d DP solves, want 2", got)
	}
}

// BenchmarkKnapsack01Served is the served shape: a break-even budget or
// MV1 solve on the 16-cuboid lattice prices 3–6 pay items against a
// slack of about $20 in micro-dollars.
func BenchmarkKnapsack01Served(b *testing.B) {
	values := []int64{5_400_000_000_000, 1_800_000_000_000, 720_000_000_000, 90_000_000_000}
	weights := []int64{6_200_000, 3_100_000, 2_400_000, 1_300_000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Knapsack01(values, weights, 20_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKnapsack01(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 16
	values := make([]int64, n)
	weights := make([]int64, n)
	for i := range values {
		values[i] = int64(rng.Intn(10_000) + 1)
		weights[i] = int64(rng.Intn(500_000) + 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Knapsack01(values, weights, 2_000_000); err != nil {
			b.Fatal(err)
		}
	}
}
