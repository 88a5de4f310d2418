package optimizer

import (
	"fmt"
	"sort"
	"time"

	"vmcloud/internal/costmodel"
	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
	"vmcloud/internal/views"
	"vmcloud/internal/workload"
)

// Evaluator prices any subset of candidate views exactly: workload time via
// cheapest-answering routing and the full tiered/rounded bill via the cost
// model. It is the ground truth the knapsack approximations are checked
// against, and what final selections are re-priced with.
type Evaluator struct {
	Est *views.Estimator
	W   workload.Workload
	// Base is the plan template: cluster, months, dataset size, egress.
	// Its view-related fields are overwritten per evaluation.
	Base costmodel.Plan
}

// NewEvaluator validates and builds an evaluator.
func NewEvaluator(est *views.Estimator, w workload.Workload, base costmodel.Plan) (*Evaluator, error) {
	if est == nil || est.Lat == nil || est.Cl == nil {
		return nil, fmt.Errorf("optimizer: estimator with lattice and cluster required")
	}
	if err := w.Validate(est.Lat); err != nil {
		return nil, err
	}
	if base.Cluster == nil {
		base.Cluster = est.Cl
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	return &Evaluator{Est: est, W: w, Base: base}, nil
}

// Evaluate returns the exact monthly workload time and period bill for
// materializing exactly the given points.
func (ev *Evaluator) Evaluate(points []lattice.Point) (time.Duration, costmodel.Bill, error) {
	proc := ev.Est.WorkloadTime(ev.W, points)
	maint := ev.Est.MaintenanceTimeForWorkload(points, ev.W)
	mat := ev.Est.TotalMaterializationTime(points)
	size := ev.Est.ViewsSize(points)
	plan := ev.Base.WithViews(size, proc, maint, mat)
	bill, err := plan.Bill()
	if err != nil {
		return 0, costmodel.Bill{}, err
	}
	return proc, bill, nil
}

// Item is one candidate view with its linearized marginal effects, the
// knapsack weights of Section 5.2. TimeSaved uses a query-to-view
// assignment (each query credits only its single best candidate) so that
// item effects add up without double counting; CostDelta linearizes
// billing (exact hours, slab storage rate at the dataset volume) — the
// final selection is always re-priced exactly by the Evaluator.
type Item struct {
	Cand views.Candidate
	// TimeSaved is the monthly workload time this view saves (≥ 0).
	TimeSaved time.Duration
	// CostDelta is the period cost change if only this view is added:
	// storage + maintenance + amortized materialization − compute savings.
	// Negative means the view pays for itself.
	CostDelta money.Money
}

// BuildItems computes the knapsack items for a candidate set.
func (ev *Evaluator) BuildItems(cands []views.Candidate) ([]Item, error) {
	if len(cands) == 0 {
		return nil, nil
	}
	l := ev.Est.Lat
	// Assignment: each query credits its best candidate (fewest rows among
	// answering candidates that beat the base).
	baseNode, err := l.Node(l.Base())
	if err != nil {
		return nil, err
	}
	assignedSaving := make([]time.Duration, len(cands))
	for _, q := range ev.W.Queries {
		best := -1
		bestRows := baseNode.Rows
		for i, c := range cands {
			if !l.CanAnswer(c.Point, q.Point) {
				continue
			}
			if c.Rows < bestRows {
				best, bestRows = i, c.Rows
			}
		}
		if best < 0 {
			continue
		}
		tBase := ev.Est.QueryTime(q.Point, nil)
		tView := ev.Est.QueryTime(q.Point, []lattice.Point{cands[best].Point})
		if tView < tBase {
			assignedSaving[best] += time.Duration(int64(q.Frequency)) * (tBase - tView)
		}
	}

	months := ev.Base.Months
	hourly := ev.Base.Cluster.HourlyRate() // $ per cluster-hour, exact
	storageRate := ev.Base.Cluster.Provider.Storage.Table.RateFor(ev.Base.DatasetSize)
	items := make([]Item, len(cands))
	for i, c := range cands {
		maint := ev.Est.MaintenanceTime(c.Point)
		mat := ev.Est.MaterializationTime(c.Point)
		cost := storageRate.MulFloat(c.Size.GBs() * months)
		cost = cost.Add(hourly.MulFloat(maint.Hours() * months))
		cost = cost.Add(hourly.MulFloat(mat.Hours()))
		cost = cost.Sub(hourly.MulFloat(assignedSaving[i].Hours() * months))
		items[i] = Item{Cand: c, TimeSaved: assignedSaving[i], CostDelta: cost}
	}
	return items, nil
}

// Selection is a solved scenario: the chosen views with their exact
// re-priced time and bill.
type Selection struct {
	// Points are the selected views.
	Points []lattice.Point
	// Time is the exact monthly workload processing time (TprocessingQ).
	Time time.Duration
	// Bill is the exact period bill.
	Bill costmodel.Bill
	// Feasible reports whether the scenario's constraint is met.
	Feasible bool
	// Strategy names the solver that produced the selection.
	Strategy string
	// Degraded marks a selection returned early because the solver's
	// deadline expired: still bit-valid and exactly priced, but the
	// search stopped at its best incumbent instead of running to
	// convergence. Budget exhaustion does NOT set this — only a
	// wall-clock deadline does, so degraded results are the only
	// timing-dependent ones.
	Degraded bool
}

func (ev *Evaluator) finish(points []lattice.Point, strategy string, feasible func(time.Duration, costmodel.Bill) bool) (Selection, error) {
	t, bill, err := ev.Evaluate(points)
	if err != nil {
		return Selection{}, err
	}
	sel := Selection{Points: points, Time: t, Bill: bill, Strategy: strategy}
	if feasible != nil {
		sel.Feasible = feasible(t, bill)
	} else {
		sel.Feasible = true
	}
	return sel, nil
}

// SolveMV1 implements scenario MV1 (Formula 13): minimize workload time
// subject to total cost ≤ budget, via a 0/1 knapsack (Knapsack01) on the items.
// Views that pay for themselves (CostDelta ≤ 0) are always taken; the
// budget slack left by the no-view baseline is spent on the rest. If the
// linearized pick overshoots the exact budget, the lowest-density views
// are dropped until the exact bill fits.
func (ev *Evaluator) SolveMV1(cands []views.Candidate, budget money.Money) (Selection, error) {
	feasible := func(_ time.Duration, b costmodel.Bill) bool { return b.Total() <= budget }
	_, baseBill, err := ev.Evaluate(nil)
	if err != nil {
		return Selection{}, err
	}
	if baseBill.Total() > budget {
		// Even without views the budget does not cover the workload.
		return ev.finish(nil, "mv1-knapsack", feasible)
	}
	items, err := ev.BuildItems(cands)
	if err != nil {
		return Selection{}, err
	}
	slack := budget.Sub(baseBill.Total())
	var chosen []Item
	var payIdx []int
	for _, it := range items {
		if it.CostDelta <= 0 && it.TimeSaved > 0 {
			chosen = append(chosen, it)
			slack = slack.Add(it.CostDelta.Neg())
		}
	}
	var values, weights []int64
	for i, it := range items {
		if it.CostDelta > 0 && it.TimeSaved > 0 {
			payIdx = append(payIdx, i)
			values = append(values, int64(it.TimeSaved))
			weights = append(weights, it.CostDelta.Micros())
		}
	}
	picked, err := Knapsack01(values, weights, slack.Micros())
	if err != nil {
		return Selection{}, err
	}
	for _, k := range picked {
		chosen = append(chosen, items[payIdx[k]])
	}
	// Exact repair: drop the worst time-per-dollar views while over budget.
	sel, err := ev.finishItems(chosen, "mv1-knapsack", feasible)
	if err != nil {
		return Selection{}, err
	}
	for !sel.Feasible && len(chosen) > 0 {
		sort.Slice(chosen, func(a, b int) bool {
			return density(chosen[a]) < density(chosen[b])
		})
		chosen = chosen[1:]
		sel, err = ev.finishItems(chosen, "mv1-knapsack", feasible)
		if err != nil {
			return Selection{}, err
		}
	}
	return sel, nil
}

func density(it Item) float64 {
	if it.CostDelta <= 0 {
		return float64(it.TimeSaved) + 1e18 // free views sort last (never dropped first)
	}
	//mvlint:allow moneyfloat -- score-space repair ranking, not billing arithmetic; goldens pin these exact floats
	return float64(it.TimeSaved) / float64(it.CostDelta)
}

func (ev *Evaluator) finishItems(items []Item, strategy string, feasible func(time.Duration, costmodel.Bill) bool) (Selection, error) {
	pts := make([]lattice.Point, len(items))
	for i, it := range items {
		pts[i] = it.Cand.Point
	}
	return ev.finish(pts, strategy, feasible)
}

// SolveMV2 implements scenario MV2 (Formula 14): minimize total cost
// subject to workload time ≤ limit. Self-paying views are always taken;
// if the time limit is still exceeded, a min-cost cover (MinCostCover) buys the
// cheapest additional time savings.
func (ev *Evaluator) SolveMV2(cands []views.Candidate, limit time.Duration) (Selection, error) {
	feasible := func(t time.Duration, _ costmodel.Bill) bool { return t <= limit }
	items, err := ev.BuildItems(cands)
	if err != nil {
		return Selection{}, err
	}
	baseTime := ev.Est.WorkloadTime(ev.W, nil)

	var chosen []Item
	saved := time.Duration(0)
	for _, it := range items {
		if it.CostDelta <= 0 && it.TimeSaved > 0 {
			chosen = append(chosen, it)
			saved += it.TimeSaved
		}
	}
	need := baseTime - limit - saved
	if need > 0 {
		var costs, gains []int64
		var idx []int
		for i, it := range items {
			if it.CostDelta > 0 && it.TimeSaved > 0 {
				idx = append(idx, i)
				costs = append(costs, it.CostDelta.Micros())
				gains = append(gains, int64(it.TimeSaved))
			}
		}
		picked, ok, err := MinCostCover(costs, gains, int64(need))
		if err != nil {
			return Selection{}, err
		}
		if !ok {
			// Constraint unreachable: return the best effort (all
			// time-saving views) marked infeasible.
			for _, i := range idx {
				chosen = append(chosen, items[i])
			}
			return ev.finishItems(chosen, "mv2-knapsack", feasible)
		}
		for _, k := range picked {
			chosen = append(chosen, items[idx[k]])
		}
	}
	return ev.finishItems(chosen, "mv2-knapsack", feasible)
}

// TradeoffMode selects how MV3 mixes time and cost.
type TradeoffMode int

const (
	// RawTradeoff uses Formula 15 literally: α·T[h] + (1−α)·C[$].
	RawTradeoff TradeoffMode = iota
	// NormalizedTradeoff divides T and C by their no-view baselines first,
	// making α unit-free.
	NormalizedTradeoff
)

// SolveMV3 implements scenario MV3 (Formula 15): minimize
// α·TprocessingQ + (1−α)·C. With an additive objective and no constraint,
// the optimum over the linearized items is to take every view whose
// marginal objective change is negative.
func (ev *Evaluator) SolveMV3(cands []views.Candidate, alpha float64, mode TradeoffMode) (Selection, error) {
	if alpha < 0 || alpha > 1 {
		return Selection{}, fmt.Errorf("optimizer: alpha %g out of [0,1]", alpha)
	}
	items, err := ev.BuildItems(cands)
	if err != nil {
		return Selection{}, err
	}
	tScale, cScale := 1.0, 1.0
	if mode == NormalizedTradeoff {
		t0, b0, err := ev.Evaluate(nil)
		if err != nil {
			return Selection{}, err
		}
		if t0 > 0 {
			tScale = 1 / t0.Hours()
		}
		if b0.Total() > 0 {
			cScale = 1 / b0.Total().Dollars()
		}
	}
	var chosen []Item
	for _, it := range items {
		delta := alpha*(-it.TimeSaved.Hours())*tScale + (1-alpha)*it.CostDelta.Dollars()*cScale
		if delta < 0 {
			chosen = append(chosen, it)
		}
	}
	return ev.finishItems(chosen, "mv3-marginal", nil)
}

// Objective computes the MV3 objective value for a given time and bill.
func Objective(alpha float64, t time.Duration, bill costmodel.Bill, mode TradeoffMode, baseT time.Duration, baseBill costmodel.Bill) float64 {
	tv, cv := t.Hours(), bill.Total().Dollars()
	if mode == NormalizedTradeoff {
		if baseT > 0 {
			tv /= baseT.Hours()
		}
		if baseBill.Total() > 0 {
			cv /= baseBill.Total().Dollars()
		}
	}
	return alpha*tv + (1-alpha)*cv
}

// SolveExhaustive enumerates every subset of candidates (n ≤ 20), prices
// each exactly, and returns the best selection under the given objective
// among those satisfying the constraint. If no subset is feasible the
// best-objective infeasible subset is returned with Feasible=false.
// It is the oracle used to validate the knapsack solvers.
func (ev *Evaluator) SolveExhaustive(
	cands []views.Candidate,
	objective func(time.Duration, costmodel.Bill) float64,
	constraint func(time.Duration, costmodel.Bill) bool,
) (Selection, error) {
	if len(cands) > 20 {
		return Selection{}, fmt.Errorf("optimizer: exhaustive search over %d candidates refused (max 20)", len(cands))
	}
	if objective == nil {
		return Selection{}, fmt.Errorf("optimizer: objective required")
	}
	var (
		bestFeasible   *Selection
		bestInfeasible *Selection
		bestFeasObj    float64
		bestInfObj     float64
	)
	n := len(cands)
	pts := make([]lattice.Point, 0, n)
	for mask := 0; mask < 1<<n; mask++ {
		pts = pts[:0]
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				pts = append(pts, cands[i].Point)
			}
		}
		t, bill, err := ev.Evaluate(pts)
		if err != nil {
			return Selection{}, err
		}
		obj := objective(t, bill)
		ok := constraint == nil || constraint(t, bill)
		sel := Selection{
			Points:   append([]lattice.Point(nil), pts...),
			Time:     t,
			Bill:     bill,
			Feasible: ok,
			Strategy: "exhaustive",
		}
		if ok {
			if bestFeasible == nil || obj < bestFeasObj {
				s := sel
				bestFeasible, bestFeasObj = &s, obj
			}
		} else if bestInfeasible == nil || obj < bestInfObj {
			s := sel
			bestInfeasible, bestInfObj = &s, obj
		}
	}
	if bestFeasible != nil {
		return *bestFeasible, nil
	}
	return *bestInfeasible, nil
}

// SolveExactGreedyMV1 greedily grows the view set using the EXACT
// evaluator at every step: each round it adds the candidate with the best
// marginal time improvement whose exact bill still fits the budget. It
// costs O(n²) exact evaluations but, unlike the knapsack over linearized
// items, it sees view synergies (a view helping queries another selected
// view also helps, tier boundaries, billing rounding). In practice it
// closes most of the gap to the exhaustive oracle.
func (ev *Evaluator) SolveExactGreedyMV1(cands []views.Candidate, budget money.Money) (Selection, error) {
	feasible := func(_ time.Duration, b costmodel.Bill) bool { return b.Total() <= budget }
	cur, err := ev.finish(nil, "mv1-exact-greedy", feasible)
	if err != nil {
		return Selection{}, err
	}
	if !cur.Feasible {
		return cur, nil
	}
	remaining := append([]views.Candidate(nil), cands...)
	chosen := []lattice.Point{}
	for len(remaining) > 0 {
		bestIdx := -1
		var best Selection
		for i, c := range remaining {
			trial := append(append([]lattice.Point(nil), chosen...), c.Point)
			sel, err := ev.finish(trial, "mv1-exact-greedy", feasible)
			if err != nil {
				return Selection{}, err
			}
			if !sel.Feasible || sel.Time >= cur.Time {
				continue
			}
			if bestIdx == -1 || sel.Time < best.Time {
				bestIdx, best = i, sel
			}
		}
		if bestIdx == -1 {
			break
		}
		chosen = append(chosen, remaining[bestIdx].Point)
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		cur = best
	}
	return cur, nil
}

// SolveGreedyMV1 is the heuristic baseline for MV1: repeatedly take the
// view with the best time-saved-per-dollar density that still fits the
// exact budget.
func (ev *Evaluator) SolveGreedyMV1(cands []views.Candidate, budget money.Money) (Selection, error) {
	feasible := func(_ time.Duration, b costmodel.Bill) bool { return b.Total() <= budget }
	items, err := ev.BuildItems(cands)
	if err != nil {
		return Selection{}, err
	}
	sort.Slice(items, func(a, b int) bool { return density(items[a]) > density(items[b]) })
	var chosen []Item
	cur, err := ev.finishItems(chosen, "mv1-greedy", feasible)
	if err != nil {
		return Selection{}, err
	}
	for _, it := range items {
		if it.TimeSaved <= 0 {
			continue
		}
		trial := append(append([]Item(nil), chosen...), it)
		sel, err := ev.finishItems(trial, "mv1-greedy", feasible)
		if err != nil {
			return Selection{}, err
		}
		if sel.Feasible && sel.Time <= cur.Time {
			chosen, cur = trial, sel
		}
	}
	return cur, nil
}
