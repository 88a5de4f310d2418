package optimizer_test

import (
	"encoding/json"
	"testing"

	"vmcloud/internal/compare"
	"vmcloud/internal/core"
	"vmcloud/internal/loadgen"
)

// BenchmarkBudgetOutcome prices the break-even budgets of one served
// compare request: the first /v1/compare body loadgen synthesizes,
// decoded and resolved as the server does, bound to its first grid cell.
// Each op is one KernelSession.BudgetOutcome — one knapsack plus the
// exact re-bill — cycling over the request's break-even budget grid.
func BenchmarkBudgetOutcome(b *testing.B) {
	var body []byte
	for _, r := range loadgen.Synthesize(loadgen.Config{Seed: 1, Requests: 200}) {
		if r.Endpoint == "compare" {
			body = r.Body
			break
		}
	}
	var rj compare.RequestJSON
	if err := json.Unmarshal(body, &rj); err != nil {
		b.Fatal(err)
	}
	if err := rj.Normalize(); err != nil {
		b.Fatal(err)
	}
	req, err := rj.Resolve()
	if err != nil {
		b.Fatal(err)
	}
	comp, err := compare.Run(req)
	if err != nil {
		b.Fatal(err)
	}
	if comp.BreakEven == nil || len(comp.BreakEven.Budgets) == 0 {
		b.Fatalf("compare body %s has no break-even grid", body)
	}
	budgets := comp.BreakEven.Budgets
	sh, err := core.NewShared(core.Config{
		FactRows:          req.FactRows,
		Months:            req.Months,
		Workload:          req.Workload,
		CandidateBudget:   req.CandidateBudget,
		MaintenanceRuns:   req.MaintenanceRuns,
		UpdateRatio:       req.UpdateRatio,
		MaintenancePolicy: req.MaintenancePolicy,
		JobOverhead:       req.JobOverhead,
		Solver:            req.Solver,
		Seed:              req.Seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	cell := comp.Configs[0].Key
	prov := req.Providers[0]
	for _, p := range req.Providers {
		if p.Name == cell.Provider {
			prov = p
		}
	}
	adv, err := sh.Advisor(prov, cell.InstanceType, cell.Instances)
	if err != nil {
		b.Fatal(err)
	}
	sess := adv.Session()
	if _, _, _, err := sess.BudgetOutcome(budgets[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := sess.BudgetOutcome(budgets[i%len(budgets)]); err != nil {
			b.Fatal(err)
		}
	}
}
