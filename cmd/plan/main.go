// Command plan is the inverse-query capacity planner CLI: name a desired
// accuracy (or take the paper's Table 1 desired SOTA), optionally a time
// or dollar budget, and get back the Pareto-optimal cluster plans —
// accelerator, worker count, per-worker subbatch, and parallelism
// strategy — that reach it, with infeasible configurations annotated
// (OOM, below minimum subbatch, over budget) rather than dropped.
//
//	plan -domain wordlm                             Pareto frontier for desired SOTA
//	plan -domain image -target-err 0.08             custom accuracy target
//	plan -domain nmt -budget-hours 720 -accel a100,h100
//	plan -domain wordlm -format ndjson -all         every candidate, one JSON per line
//	plan -list-accels                               the accelerator catalog with aliases
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"

	cat "catamount"
	"catamount/internal/api"
	"catamount/internal/obs"
	"catamount/internal/sweep"
)

func main() {
	domain := flag.String("domain", "wordlm", "domain: wordlm, charlm, nmt, speech, image")
	targetErr := flag.Float64("target-err", 0,
		"desired accuracy in the domain's error metric (0 = the paper's Table 1 desired SOTA)")
	budgetHours := flag.Float64("budget-hours", 0, "time-to-train budget in hours (0 = unbounded)")
	budgetUSD := flag.Float64("budget-usd", 0, "dollar budget (0 = unbounded)")
	epochs := flag.Float64("epochs", 0, "passes over the target dataset (0 = 1)")
	accel := flag.String("accel", "",
		"comma-separated accelerators to search: catalog names/aliases, @file.json custom devices; empty = the whole catalog")
	// Named -worker-counts, not -workers: on cmd/sweep -workers sizes the
	// evaluation pool, while this flag is a search axis (cluster sizes).
	workersList := flag.String("worker-counts", "",
		"comma-separated data-parallel cluster sizes to search; empty = powers of two 1..16384")
	pool := flag.Int("pool", 0, "candidate-evaluation workers (0 = GOMAXPROCS)")
	subbatch := flag.String("subbatch", "", "comma-separated per-worker subbatch sizes; empty = powers of two 8..512")
	strategies := flag.String("strategies", "", "comma-separated strategies (allreduce, overlap, sharded); empty = all")
	costmodel := flag.String("costmodel", "",
		"step-time cost model: graph (default, §5.2 graph-level roofline) or perop (per-op roofline, §4.1/§5.1)")
	format := flag.String("format", "table", "output: table or ndjson")
	all := flag.Bool("all", false, "emit every candidate (annotated), not just the Pareto frontier")
	listAccels := flag.Bool("list-accels", false, "list the accelerator catalog with aliases and exit")
	logLevel := flag.String("log-level", "info", "log level (debug, info, warn, error)")
	logFormat := flag.String("log-format", "text", "log format (text, json)")
	traceOut := flag.String("trace-out", "",
		"write a Chrome trace-event (Perfetto) JSON trace of this run to this file")
	flag.Parse()

	runCtx, _, err := obs.SetupCLI(os.Stderr, "plan", *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "plan:", err)
		os.Exit(1)
	}
	if *listAccels {
		cat.PrintAcceleratorCatalog(os.Stdout)
		return
	}

	// The run ID rides the signal context into plan_evaluate stage spans.
	ctx, stop := signal.NotifyContext(runCtx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	ctx, finishTrace := obs.StartCLITrace(ctx, "plan", *traceOut)
	defer func() {
		if err := finishTrace(); err != nil {
			fmt.Fprintln(os.Stderr, "plan: -trace-out:", err)
		}
	}()

	// The CLI builds the same versioned wire spec the server decodes —
	// internal/api owns the schema; cat.PlanSpec is an alias of it.
	spec := api.PlanSpec{
		Domain:      *domain,
		TargetErr:   *targetErr,
		Epochs:      *epochs,
		BudgetHours: *budgetHours,
		BudgetUSD:   *budgetUSD,
		Strategies:  splitList(*strategies),
		CostModel:   *costmodel,
		Workers:     *pool,
	}
	if spec.Subbatches, err = parseFloats(*subbatch); err != nil {
		fatalf("-subbatch: %v", err)
	}
	if spec.WorkerCounts, err = parseInts(*workersList); err != nil {
		fatalf("-worker-counts: %v", err)
	}
	// The CLI resolves accelerators itself (for @file.json support) and
	// hands the spec resolved devices, like cmd/sweep.
	if *accel != "" {
		for _, ref := range splitList(*accel) {
			acc, err := cat.ResolveAccelerator(ref)
			if err != nil {
				fatal(err)
			}
			spec.Custom = append(spec.Custom, acc)
		}
	}

	res, err := cat.DefaultEngine().PlanSearch(ctx, spec)
	if err != nil {
		fatal(err)
	}

	switch *format {
	case "ndjson":
		plans := res.Frontier
		if *all {
			plans = res.Plans
		}
		for _, p := range plans {
			if err := sweep.WriteJSONLine(os.Stdout, p); err != nil {
				fatal(err)
			}
		}
	case "table":
		printTable(res, *all)
	default:
		fatalf("unknown -format %q (table, ndjson)", *format)
	}
}

func printTable(res *cat.PlanResult, all bool) {
	t := res.Target
	fmt.Printf("Target: %s at %.3g %s\n", t.Name, t.TargetErr, t.Metric)
	fmt.Printf("  needs %.3g %ss (%.0fx current data) and %.3g parameters (%.1fx current model)\n",
		t.DataSamples, t.SampleUnit, t.DataScale, t.Params, t.ModelScale)
	fmt.Printf("  searched %d candidate plans; objectives: %s; costmodel: %s\n\n",
		res.Candidates, strings.Join(res.Objectives, ", "), res.CostModel)

	if len(res.Frontier) == 0 {
		fmt.Println("No feasible plan in the searched space.")
	} else {
		fmt.Println("Pareto-optimal plans (fastest first):")
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "Accelerator\tStrategy\tWorkers\tSubbatch\tStep (s)\tTrain\tCost\tEnergy\tUtil\tMem/dev")
		for _, p := range res.Frontier {
			fmt.Fprintf(tw, "%s\t%s\t%d\t%g\t%.3g\t%s\t%s\t%.3g MWh\t%.1f%%\t%.0f GB\n",
				p.Accelerator, p.Strategy, p.Workers, p.Subbatch, p.StepSeconds,
				fmtHours(p.TrainHours), fmtCost(p.CostUSD), p.EnergyKWh/1000,
				100*p.Utilization, p.MemPerDeviceGB)
		}
		tw.Flush()
	}

	if all {
		fmt.Println("\nAll candidates:")
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "Accelerator\tStrategy\tWorkers\tSubbatch\tTrain\tCost\tStatus")
		for _, p := range res.Plans {
			status := "feasible"
			switch {
			case p.OnFrontier:
				status = "pareto-optimal"
			case !p.Feasible:
				status = strings.Join(p.Infeasible, "; ")
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%g\t%s\t%s\t%s\n",
				p.Accelerator, p.Strategy, p.Workers, p.Subbatch,
				fmtHours(p.TrainHours), fmtCost(p.CostUSD), status)
		}
		tw.Flush()
	}
}

func fmtHours(h float64) string {
	if h == 0 {
		return "-"
	}
	if h < 48 {
		return fmt.Sprintf("%.1f h", h)
	}
	return fmt.Sprintf("%.1f d", h/24)
}

func fmtCost(usd float64) string {
	if usd == 0 {
		return "-"
	}
	if usd >= 1e6 {
		return fmt.Sprintf("$%.2fM", usd/1e6)
	}
	return fmt.Sprintf("$%.0f", usd)
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func parseFloats(list string) ([]float64, error) {
	var out []float64
	for _, p := range splitList(list) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("invalid number %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(list string) ([]int, error) {
	var out []int
	for _, p := range splitList(list) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("invalid integer %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	slog.Error(err.Error())
	os.Exit(1)
}

func fatalf(format string, args ...any) {
	slog.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}
