package obs

// Solver-side instruments. These live on the Default registry because
// the optimizer/search packages have no server instance to hang series
// off — a process has one solver engine, however many servers wrap it.
//
// The counters are deliberately coarse-grained: NewComparisonKernel and
// Bind increment once per build/rebind (cheap relative to the work they
// count), while the inner-loop quantities — incremental-evaluator moves
// and search evaluations — are accumulated in plain solver-local fields
// and flushed here once per solve, so the gated search benchmarks never
// pay a per-move atomic.
var (
	// KernelBuilds counts tariff-independent comparison-kernel
	// constructions (one per distinct workload shape).
	KernelBuilds = Default.Counter("mvcloud_solver_kernel_builds_total",
		"Comparison kernel constructions (one per distinct workload shape).")

	// KernelRebinds counts tariff bindings of an existing kernel
	// (Bind/RepriceFor), the structure-sharing fast path.
	KernelRebinds = Default.Counter("mvcloud_solver_kernel_rebinds_total",
		"Tariff bindings of an existing comparison kernel (RepriceFor fast path).")

	// IncrementalMoves counts incremental-evaluator Add/Drop moves,
	// flushed once per search solve.
	IncrementalMoves = Default.Counter("mvcloud_solver_incremental_moves_total",
		"Incremental evaluator Add/Drop moves across all search solves.")

	// SearchEvals counts objective evaluations across all search solves,
	// flushed once per solve.
	SearchEvals = Default.Counter("mvcloud_solver_search_evals_total",
		"Objective evaluations across all local-search solves.")
)

// Knapsack work, counted per Knapsack01/MinCostCover call (MV1/MV2
// solves and break-even budgets). The method label shows whether a call
// was solved by exact enumeration or fell back to the table DP; the cell
// count is the DP's table work (items × capacity columns), so a served
// fall-back to the DP is visible on /metrics.
var (
	KnapsackEnumSolves = Default.Counter("mvcloud_knapsack_solves_total",
		"Knapsack solves (Knapsack01 and MinCostCover) by method.", "method", "enum")
	KnapsackDPSolves = Default.Counter("mvcloud_knapsack_solves_total",
		"Knapsack solves (Knapsack01 and MinCostCover) by method.", "method", "dp")
	KnapsackDPCells = Default.Counter("mvcloud_knapsack_dp_cells_total",
		"DP table cells (items x capacity columns) filled by knapsack solves above the enumeration bound.")
)
