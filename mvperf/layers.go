package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"vmcloud/internal/compare"
	"vmcloud/internal/core"
	"vmcloud/internal/costmodel"
	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
	"vmcloud/internal/optimizer"
	"vmcloud/internal/pricing"
	"vmcloud/internal/schema"
	"vmcloud/internal/search"
	"vmcloud/internal/server"
	"vmcloud/internal/views"
	"vmcloud/internal/workload"
)

// replayer re-executes cold requests one layer call at a time through
// the layers' public functions, recording a span around each call. It
// replays the served pipeline (normalize, resolve, the engine run,
// encode) and checks that the replay reproduces the served bytes; it
// then re-runs the engine's steps one by one (lattice, candidates,
// kernel, one bind and the solves per tariff cell, the break-even
// knapsacks) so each layer's time is measured on its own.
type replayer struct {
	log *spanLog
	wl  *traffic
	chk *checker

	requests   [numEndpoints]int
	candidates int // candidates generated, summed over views.candidates calls
	evals      int // search evaluations, summed over search.solve calls
}

// shape is the tariff-independent half of a problem, as the compare
// engine hands it to core.NewShared.
type shape struct {
	cfg core.Config
	l   *lattice.Lattice
}

func (r *replayer) replay(ref reqRef) error {
	r.log.req++
	r.requests[ref.ep]++
	root := r.log.begin("replay." + ref.ep.String())
	defer r.log.end(root)
	body := r.wl.body(ref)
	var (
		out []byte
		err error
	)
	switch ref.ep {
	case epAdvise:
		out, err = r.advise(body)
	case epCompare:
		out, err = r.compare(body)
	case epSweep:
		out, err = r.sweep(body)
	}
	if err != nil {
		return fmt.Errorf("replay %s problem %d: %v", ref.ep, ref.id, err)
	}
	if responseHash(append(out, '\n')) != r.chk.expected(ref.slot) {
		return fmt.Errorf("replay %s problem %d: replayed response differs from the served one", ref.ep, ref.id)
	}
	return nil
}

func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// do runs f inside a span and passes its error through.
func (r *replayer) do(name string, f func() error) error {
	i := r.log.begin(name)
	err := f()
	r.log.end(i)
	return err
}

// structure times the shared build step by step, then as the engine
// runs it (core.NewShared).
func (r *replayer) structure(cfg core.Config) (*core.Shared, error) {
	var (
		l     *lattice.Lattice
		cands []views.Candidate
		sh    *core.Shared
	)
	if err := r.do("lattice.new", func() (err error) {
		l, err = lattice.New(schema.Sales(), cfg.FactRows)
		return err
	}); err != nil {
		return nil, err
	}
	if err := r.do("views.candidates", func() (err error) {
		cands, err = views.GenerateCandidates(l, cfg.Workload, cfg.CandidateBudget)
		return err
	}); err != nil {
		return nil, err
	}
	r.candidates += len(cands)
	if err := r.do("optimizer.kernel", func() error {
		_, err := optimizer.NewComparisonKernel(l, cfg.Workload, cands)
		return err
	}); err != nil {
		return nil, err
	}
	err := r.do("core.shared", func() (err error) {
		sh, err = core.NewShared(cfg)
		return err
	})
	return sh, err
}

// bind times one tariff binding.
func (r *replayer) bind(sh *core.Shared, p pricing.Provider, instanceType string, instances int) (*core.Advisor, error) {
	var adv *core.Advisor
	err := r.do("optimizer.bind", func() (err error) {
		adv, err = sh.Advisor(p, instanceType, instances)
		return err
	})
	return adv, err
}

// solve times one knapsack scenario solve on the advisor's kernel
// session and returns the selection.
func (r *replayer) solve(adv *core.Advisor, scenario string, budget money.Money, limit time.Duration, alpha float64) (optimizer.Selection, error) {
	var sel optimizer.Selection
	err := r.do("optimizer.mv_solve", func() (err error) {
		sess := adv.Session()
		switch scenario {
		case "mv1":
			sel, err = sess.SolveMV1(budget)
		case "mv2":
			sel, err = sess.SolveMV2(limit)
		default:
			sel, err = sess.SolveMV3(alpha, optimizer.RawTradeoff)
		}
		return err
	})
	return sel, err
}

func (r *replayer) advise(body []byte) ([]byte, error) {
	var req server.AdviseRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	if err := r.do("core.normalize", req.ConfigJSON.Normalize); err != nil {
		return nil, err
	}
	var cfg core.Config
	if err := r.do("core.resolve", func() (err error) {
		cfg, err = req.ConfigJSON.Resolve()
		return err
	}); err != nil {
		return nil, err
	}
	sh, err := r.structure(cfg)
	if err != nil {
		return nil, err
	}
	adv, err := r.bind(sh, *cfg.Provider, cfg.InstanceType, cfg.Instances)
	if err != nil {
		return nil, err
	}
	resp := server.AdviseResponse{
		Scenario:    req.Scenario,
		DatasetSize: core.DatasetSizeOf(adv).String(),
		Candidates:  len(adv.Candidates),
	}
	if req.Scenario == "pareto" {
		var front []core.ParetoPoint
		if err := r.do("core.pareto", func() (err error) {
			front, err = adv.ParetoFront(req.Steps)
			return err
		}); err != nil {
			return nil, err
		}
		var out []byte
		err := r.do("encode.json", func() (err error) {
			resp.Pareto = core.ParetoJSON(front)
			out, err = json.Marshal(resp)
			return err
		})
		return out, err
	}

	var (
		budget money.Money
		limit  time.Duration
		alpha  float64
		obj    search.Objective
	)
	switch req.Scenario {
	case "mv1":
		budget = *req.Budget
		obj = search.BudgetObjective(budget)
	case "mv2":
		if limit, err = time.ParseDuration(req.Limit); err != nil {
			return nil, err
		}
		obj = search.DeadlineObjective(limit)
	default:
		alpha = *req.Alpha
		obj = search.TradeoffObjective(alpha, optimizer.RawTradeoff, 0, costmodel.Bill{})
	}
	warm, err := r.solve(adv, req.Scenario, budget, limit, alpha)
	if err != nil {
		return nil, err
	}
	if adv.Solver == core.SolverSearch {
		if err := r.do("search.solve", func() error {
			opts := search.Options{Seed: adv.Seed, Engine: adv.Session().Engine(), Starts: [][]lattice.Point{warm.Points}}
			_, st, err := search.SolveStats(adv.Ev, adv.Candidates, obj, opts)
			r.evals += st.Evals
			return err
		}); err != nil {
			return nil, err
		}
	}
	// The served call: the scenario solve plus the recommendation.
	var rec core.Recommendation
	if err := r.do("core.advise", func() (err error) {
		switch req.Scenario {
		case "mv1":
			rec, err = adv.AdviseBudget(budget)
		case "mv2":
			rec, err = adv.AdviseDeadline(limit)
		default:
			rec, err = adv.AdviseTradeoff(alpha)
		}
		return err
	}); err != nil {
		return nil, err
	}
	var out []byte
	if err := r.do("encode.json", func() (err error) {
		rj := rec.JSON()
		resp.Recommendation = &rj
		resp.Degraded = rec.Selection.Degraded
		out, err = json.Marshal(resp)
		return err
	}); err != nil {
		return nil, err
	}
	r.do("report.render", func() error { _ = rec.Render(); return nil })
	return out, nil
}

// gridCfg is the shared-structure config the compare engines build
// from a normalized request (compare's normalized.shared).
func gridCfg(factRows int64, months float64, w workload.Workload, candidates, runs int, ratio float64,
	policy views.MaintenancePolicy, overhead time.Duration, solver string, seed int64) core.Config {
	return core.Config{
		FactRows: factRows, Months: months, Workload: w, CandidateBudget: candidates,
		MaintenanceRuns: runs, UpdateRatio: ratio, MaintenancePolicy: policy,
		JobOverhead: overhead, Solver: solver, Seed: seed,
	}
}

// cell is one runnable grid configuration.
type cell struct {
	p            pricing.Provider
	instanceType string
	instances    int
}

// cells expands a grid in the compare engine's order, dropping
// pairings a provider does not offer.
func cells(provs []pricing.Provider, types []string, fleets []int) []cell {
	provs = append([]pricing.Provider(nil), provs...)
	sort.Slice(provs, func(i, j int) bool { return provs[i].Name < provs[j].Name })
	types = append([]string(nil), types...)
	sort.Strings(types)
	fleets = append([]int(nil), fleets...)
	sort.Ints(fleets)
	var out []cell
	for _, p := range provs {
		for _, it := range types {
			if _, ok := p.Compute.Instances[it]; !ok {
				continue
			}
			for _, f := range fleets {
				out = append(out, cell{p, it, f})
			}
		}
	}
	return out
}

func (r *replayer) compare(body []byte) ([]byte, error) {
	var rj compare.RequestJSON
	if err := decodeStrict(body, &rj); err != nil {
		return nil, err
	}
	if err := r.do("core.normalize", rj.Normalize); err != nil {
		return nil, err
	}
	var req compare.Request
	if err := r.do("core.resolve", func() (err error) {
		req, err = rj.Resolve()
		return err
	}); err != nil {
		return nil, err
	}
	var comp *compare.Comparison
	if err := r.do("compare.run", func() (err error) {
		comp, err = compare.Run(req)
		return err
	}); err != nil {
		return nil, err
	}
	var out []byte
	if err := r.do("encode.json", func() (err error) {
		out, err = json.Marshal(comp.JSON())
		return err
	}); err != nil {
		return nil, err
	}
	r.do("report.render", func() error { _ = comp.Render(); return nil })

	sh, err := r.structure(gridCfg(req.FactRows, req.Months, req.Workload, req.CandidateBudget, req.MaintenanceRuns,
		req.UpdateRatio, req.MaintenancePolicy, req.JobOverhead, req.Solver, req.Seed))
	if err != nil {
		return nil, err
	}
	var budgets []money.Money
	if comp.BreakEven != nil {
		budgets = comp.BreakEven.Budgets
	}
	for _, c := range cells(req.Providers, req.InstanceTypes, req.FleetSizes) {
		if err := r.do("compare.cell", func() error {
			adv, err := r.bind(sh, c.p, c.instanceType, c.instances)
			if err != nil {
				return err
			}
			for _, s := range req.Scenarios {
				if s == "pareto" {
					if err := r.do("core.pareto", func() error { _, err := adv.ParetoFront(req.Steps); return err }); err != nil {
						return err
					}
					continue
				}
				alpha := req.Alpha
				if alpha == 0 {
					alpha = 0.5
				}
				if _, err := r.solve(adv, s, req.Budget, req.Limit, alpha); err != nil {
					return err
				}
			}
			sess := adv.Session()
			for _, b := range budgets {
				if err := r.do("optimizer.budget_outcome", func() error {
					_, _, _, err := sess.BudgetOutcome(b)
					return err
				}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *replayer) sweep(body []byte) ([]byte, error) {
	var rj compare.SweepRequestJSON
	if err := decodeStrict(body, &rj); err != nil {
		return nil, err
	}
	if err := r.do("core.normalize", rj.Normalize); err != nil {
		return nil, err
	}
	var req compare.SweepRequest
	if err := r.do("core.resolve", func() (err error) {
		req, err = rj.Resolve()
		return err
	}); err != nil {
		return nil, err
	}
	var sw *compare.Sweep
	if err := r.do("compare.sweep", func() (err error) {
		sw, err = compare.RunSweep(req)
		return err
	}); err != nil {
		return nil, err
	}
	var out []byte
	if err := r.do("encode.json", func() (err error) {
		out, err = json.Marshal(sw.JSON())
		return err
	}); err != nil {
		return nil, err
	}
	r.do("report.render", func() error { _ = sw.Render(); return nil })

	sh, err := r.structure(gridCfg(req.FactRows, req.Months, req.Workload, req.CandidateBudget, req.MaintenanceRuns,
		req.UpdateRatio, req.MaintenancePolicy, req.JobOverhead, req.Solver, req.Seed))
	if err != nil {
		return nil, err
	}
	alpha := req.Alpha
	if alpha == 0 {
		alpha = 0.5
	}
	for _, c := range cells(req.Providers, req.InstanceTypes, req.FleetSizes) {
		if err := r.do("compare.cell", func() error {
			adv, err := r.bind(sh, c.p, c.instanceType, c.instances)
			if err != nil {
				return err
			}
			_, err = r.solve(adv, sw.Scenario, req.Budget, req.Limit, alpha)
			return err
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}
