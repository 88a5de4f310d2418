// Package optimizer implements the paper's optimization process (Section
// 5): selecting the subset of candidate materialized views under the three
// objective scenarios MV1 (minimize workload time under a budget), MV2
// (minimize monetary cost under a response-time limit) and MV3 (minimize
// the weighted time/cost tradeoff), solved — as in the paper — as exact
// 0/1 knapsacks (subset enumeration up to enumLimit items, a dynamic
// program above it), with an exhaustive oracle and a greedy heuristic as
// baselines.
package optimizer

import (
	"fmt"
	"math"
	"math/bits"

	"vmcloud/internal/obs"
)

// enumLimit is the largest item count Knapsack01 and MinCostCover solve
// by exact subset enumeration: 2^16 Gray-code steps with running sums in
// true units, no table and no scaling. Every served instance is within
// it: the wired 16-cuboid lattice yields at most 16 items.
const enumLimit = 16

// maxDPCells bounds the size of the dynamic-programming tables used above
// enumLimit; larger capacities are scaled down (with conservative
// rounding) to fit.
const maxDPCells = 1 << 21

// Knapsack01 solves the 0/1 knapsack problem: choose a subset of items
// maximizing Σ values[i] subject to Σ weights[i] ≤ capacity. Values and
// weights must be non-negative. Returns the chosen indices in increasing
// order.
//
// Up to enumLimit items the solve is exact, and among optimal subsets it
// returns the one with the smallest index mask (bit i = item i). Above
// it a DP runs; when the capacity is large it scales weights down with
// round-up, so the subset never exceeds the true capacity but may fall
// short of the optimum.
func Knapsack01(values, weights []int64, capacity int64) ([]int, error) {
	if len(values) != len(weights) {
		return nil, fmt.Errorf("optimizer: %d values vs %d weights", len(values), len(weights))
	}
	for i := range values {
		if values[i] < 0 || weights[i] < 0 {
			return nil, fmt.Errorf("optimizer: negative value/weight at item %d", i)
		}
	}
	if capacity < 0 || len(values) == 0 {
		return nil, nil
	}
	if len(values) <= enumLimit && sumFits(values) && sumFits(weights) {
		obs.KnapsackEnumSolves.Inc()
		return knapsackEnum(values, weights, capacity), nil
	}
	obs.KnapsackDPSolves.Inc()
	return knapsackDP(values, weights, capacity), nil
}

// knapsackEnum walks every subset in Gray-code order, so each step flips
// one item and updates the running value and weight in O(1).
func knapsackEnum(values, weights []int64, capacity int64) []int {
	var mask, best uint32
	var val, wt, bestVal int64
	for k := uint32(1); k < 1<<len(values); k++ {
		i := bits.TrailingZeros32(k)
		mask ^= 1 << i
		if mask&(1<<i) != 0 {
			val, wt = val+values[i], wt+weights[i]
		} else {
			val, wt = val-values[i], wt-weights[i]
		}
		if wt <= capacity && (val > bestVal || val == bestVal && mask < best) {
			best, bestVal = mask, val
		}
	}
	return maskIndices(best)
}

// knapsackDP is the table solve for instances above enumLimit (and for
// sums that would overflow the enumeration's int64 running totals). Its
// traceback keeps an item only on strict improvement, so when it does
// not scale it returns the same smallest-mask optimum as knapsackEnum.
func knapsackDP(values, weights []int64, capacity int64) []int {
	n := len(values)
	// Scale weights so the DP table fits. Round weights UP so that a
	// selection feasible in scaled units is feasible in true units.
	scale := int64(1)
	if perItem := int64(maxDPCells / n); capacity+1 > perItem {
		scale = (capacity + perItem) / perItem
	}
	scaledCap := capacity / scale
	w := make([]int64, n)
	for i := range weights {
		w[i] = (weights[i] + scale - 1) / scale
	}
	// A capacity beyond Σw admits every subset, so clamp it: the table
	// shrinks and the traceback picks the same subset.
	if total, ok := sum(w); ok && total < scaledCap {
		scaledCap = total
	}

	// dp[c] is the best value achievable with total scaled weight ≤ c.
	// Zero-initialization is correct because every state is reachable (the
	// empty selection has weight 0 ≤ c and value 0); no unreachable-state
	// sentinel is needed in this "at most c" formulation. keep is a flat
	// n×(scaledCap+1) matrix.
	cells := scaledCap + 1
	obs.KnapsackDPCells.Add(int64(n) * cells)
	dp := make([]int64, cells)
	keep := make([]bool, int64(n)*cells)
	for i := 0; i < n; i++ {
		row := keep[int64(i)*cells : int64(i+1)*cells]
		for c := scaledCap; c >= w[i]; c-- {
			if cand := dp[c-w[i]] + values[i]; cand > dp[c] {
				dp[c] = cand
				row[c] = true
			}
		}
	}
	// Trace back.
	var chosen []int
	c := scaledCap
	for i := n - 1; i >= 0; i-- {
		if keep[int64(i)*cells+c] {
			chosen = append(chosen, i)
			c -= w[i]
		}
	}
	reverse(chosen)
	return chosen
}

// MinCostCover chooses a subset minimizing Σ costs[i] subject to
// Σ gains[i] ≥ need. Costs and gains must be non-negative. Returns the
// chosen indices and whether the need is coverable at all.
//
// Up to enumLimit items the solve is exact, and among optimal covers it
// returns the one with the smallest index mask (bit i = item i). Above
// it a DP runs; when the need is large it scales gains down with
// round-down, so the subset always truly covers the need but may cost
// more than the optimum.
func MinCostCover(costs, gains []int64, need int64) ([]int, bool, error) {
	if len(costs) != len(gains) {
		return nil, false, fmt.Errorf("optimizer: %d costs vs %d gains", len(costs), len(gains))
	}
	for i := range costs {
		if costs[i] < 0 || gains[i] < 0 {
			return nil, false, fmt.Errorf("optimizer: negative cost/gain at item %d", i)
		}
	}
	if need <= 0 {
		return nil, true, nil
	}
	totalGain, gainsFit := sum(gains)
	if gainsFit && totalGain < need {
		return nil, false, nil
	}
	if len(costs) <= enumLimit && gainsFit && sumFits(costs) {
		obs.KnapsackEnumSolves.Inc()
		return coverEnum(costs, gains, need), true, nil
	}
	obs.KnapsackDPSolves.Inc()
	chosen, ok := coverDP(costs, gains, need)
	return chosen, ok, nil
}

// coverEnum is knapsackEnum's twin for MinCostCover. The caller has
// checked that taking every item covers the need.
func coverEnum(costs, gains []int64, need int64) []int {
	var mask uint32
	var cost, gain int64
	best, bestCost := uint32(1)<<len(costs)-1, int64(math.MaxInt64)
	for k := uint32(1); k < 1<<len(costs); k++ {
		i := bits.TrailingZeros32(k)
		mask ^= 1 << i
		if mask&(1<<i) != 0 {
			cost, gain = cost+costs[i], gain+gains[i]
		} else {
			cost, gain = cost-costs[i], gain-gains[i]
		}
		if gain >= need && (cost < bestCost || cost == bestCost && mask < best) {
			best, bestCost = mask, cost
		}
	}
	return maskIndices(best)
}

// coverDP is the table solve for MinCostCover above enumLimit (and for
// sums that would overflow the enumeration). Like knapsackDP, it keeps
// an item only on strict improvement, so unscaled it returns the same
// smallest-mask optimum as coverEnum.
func coverDP(costs, gains []int64, need int64) ([]int, bool) {
	n := len(costs)
	// Scale gains down (round DOWN) so a scaled cover is a true cover; the
	// need is scaled up correspondingly.
	scale := int64(1)
	if perItem := int64(maxDPCells / n); need+1 > perItem {
		scale = (need + perItem) / perItem
	}
	g := make([]int64, n)
	var scaledTotal int64
	for i := range gains {
		g[i] = gains[i] / scale
		scaledTotal += g[i]
	}
	target := (need + scale - 1) / scale
	if scaledTotal < target {
		// Rounding destroyed feasibility; fall back to taking everything
		// (feasible in true units by the caller's total-gain check).
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all, true
	}

	const inf = math.MaxInt64 / 4
	// dp[s] = min cost to reach scaled gain ≥ s (s capped at target);
	// keep is flat n×(target+1).
	cells := target + 1
	obs.KnapsackDPCells.Add(int64(n) * cells)
	dp := make([]int64, cells)
	for s := range dp {
		dp[s] = inf
	}
	dp[0] = 0
	keep := make([]bool, int64(n)*cells)
	for i := 0; i < n; i++ {
		row := keep[int64(i)*cells : int64(i+1)*cells]
		for s := target; s >= 1; s-- {
			from := s - g[i]
			if from < 0 {
				from = 0
			}
			if from == s {
				continue // zero-gain item never helps coverage
			}
			if dp[from] < inf && dp[from]+costs[i] < dp[s] {
				dp[s] = dp[from] + costs[i]
				row[s] = true
			}
		}
	}
	if dp[target] >= inf {
		return nil, false
	}
	var chosen []int
	s := target
	for i := n - 1; i >= 0; i-- {
		if s > 0 && keep[int64(i)*cells+s] {
			chosen = append(chosen, i)
			s -= g[i]
			if s < 0 {
				s = 0
			}
		}
	}
	reverse(chosen)
	return chosen, true
}

// maskIndices lists the set bits of mask in increasing order (nil for
// the empty set, as the DP traceback returns).
func maskIndices(mask uint32) []int {
	if mask == 0 {
		return nil
	}
	idx := make([]int, 0, bits.OnesCount32(mask))
	for ; mask != 0; mask &= mask - 1 {
		idx = append(idx, bits.TrailingZeros32(mask))
	}
	return idx
}

// sum totals non-negative xs, reporting false if the total overflows
// int64.
func sum(xs []int64) (int64, bool) {
	var s int64
	for _, x := range xs {
		if x > math.MaxInt64-s {
			return 0, false
		}
		s += x
	}
	return s, true
}

// sumFits reports whether the non-negative xs total within int64, which
// bounds every running sum the enumeration keeps.
func sumFits(xs []int64) bool {
	_, ok := sum(xs)
	return ok
}

func reverse(xs []int) {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
}
