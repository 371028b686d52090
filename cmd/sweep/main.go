// Command sweep is the bulk grid evaluator CLI: one invocation regenerates
// an entire domain × parameter count × subbatch × accelerator grid through
// one compiled Engine session, streaming results as they complete.
//
//	sweep -params 1e8,1e9 -subbatch 32,128 -accel all          NDJSON grid to stdout
//	sweep -param-min 1e7 -param-max 1e9 -param-steps 8 -format csv
//	sweep -table3 -accel v100,a100,h100,tpuv3,cpu              Table 3 on each accelerator
//	sweep -figure 11 -accel all                                Figure 11 CSV per accelerator
//	sweep -figure 12 -accel all                                Figure 12 CSV per accelerator
//
// The -accel list accepts catalog names and aliases, @file.json custom
// devices, and "all" for the whole catalog. Grid rows stream in a
// deterministic order (domain-major, then params, then subbatch, then
// accelerator) regardless of evaluation parallelism.
//
// -cpuprofile and -memprofile write pprof profiles of any mode (grid,
// tables, figures) for chasing hot-loop regressions:
//
//	sweep -params 5e7,2e8,1e9 -subbatch 32,128 -accel all \
//	    -cpuprofile cpu.pprof -memprofile mem.pprof >/dev/null
//	go tool pprof -top cpu.pprof
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
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
	domains := flag.String("domains", "", "comma-separated domains (wordlm,charlm,nmt,speech,image); empty or \"all\" = all five")
	params := flag.String("params", "", "comma-separated parameter-count targets, e.g. 1e8,1e9")
	paramMin := flag.Float64("param-min", 0, "log-spaced range: smallest parameter target")
	paramMax := flag.Float64("param-max", 0, "log-spaced range: largest parameter target")
	paramSteps := flag.Int("param-steps", 0, "log-spaced range: number of targets")
	subbatch := flag.String("subbatch", "", "comma-separated subbatch sizes; empty = each domain's profiling subbatch")
	accel := flag.String("accel", "",
		"comma-separated accelerators: catalog names/aliases, @file.json custom devices, \"all\" for the catalog; empty = the paper's target")
	costmodel := flag.String("costmodel", "",
		"step-time cost model: graph (default, §5.2 graph-level roofline) or perop (per-op roofline, §4.1/§5.1)")
	format := flag.String("format", "ndjson", "grid output: ndjson, csv or table")
	workers := flag.Int("workers", 0, "evaluation workers (0 = GOMAXPROCS)")
	table3 := flag.Bool("table3", false, "print Table 3 on each -accel instead of a grid sweep")
	figure := flag.String("figure", "", "print figure \"11\" or \"12\" CSV on each -accel instead of a grid sweep")
	listAccels := flag.Bool("list-accels", false, "list the accelerator catalog with aliases and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	logLevel := flag.String("log-level", "info", "log level (debug, info, warn, error)")
	logFormat := flag.String("log-format", "text", "log format (text, json)")
	traceOut := flag.String("trace-out", "",
		"write a Chrome trace-event (Perfetto) JSON trace of this run to this file")
	flag.Parse()
	runCtx, _, err := obs.SetupCLI(os.Stderr, "sweep", *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	if *listAccels {
		cat.PrintAcceleratorCatalog(os.Stdout)
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("-cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatalf("-cpuprofile: %v", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatalf("-memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC() // settle live heap so the profile reflects retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatalf("-memprofile: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(runCtx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	ctx, finishTrace := obs.StartCLITrace(ctx, "sweep", *traceOut)
	defer func() {
		if err := finishTrace(); err != nil {
			fmt.Fprintln(os.Stderr, "sweep: -trace-out:", err)
		}
	}()

	eng := cat.DefaultEngine()

	accs, err := resolveAccelerators(*accel)
	if err != nil {
		fatal(err)
	}
	cm, err := cat.ParseCostModel(*costmodel)
	if err != nil {
		fatal(err)
	}

	switch {
	case *table3:
		if err := eng.WriteFrontierGridWith(os.Stdout, accs, cm); err != nil {
			fatal(err)
		}
		return
	case *figure == "11":
		if err := eng.WriteFigure11GridWith(os.Stdout, accs, cm); err != nil {
			fatal(err)
		}
		return
	case *figure == "12":
		if err := eng.WriteFigure12GridWith(os.Stdout, accs, cm); err != nil {
			fatal(err)
		}
		return
	case *figure != "":
		fatalf("unknown -figure %q (11 or 12)", *figure)
	}

	// The CLI builds the same versioned wire spec the server decodes —
	// internal/api owns the schema; cat.SweepSpec is an alias of it.
	spec := api.SweepSpec{
		ParamMin:   *paramMin,
		ParamMax:   *paramMax,
		ParamSteps: *paramSteps,
		CostModel:  *costmodel,
		Workers:    *workers,
	}
	if *domains != "" && *domains != "all" {
		spec.Domains = splitList(*domains)
	}
	if spec.Params, err = parseFloats(*params); err != nil {
		fatalf("-params: %v", err)
	}
	if spec.Subbatches, err = parseFloats(*subbatch); err != nil {
		fatalf("-subbatch: %v", err)
	}
	// The CLI resolves accelerators itself (for @file.json support) and
	// hands the spec resolved devices.
	spec.Custom = accs

	// Validate before the emitter writes anything: a bad spec must not
	// leave a bare CSV header in piped output.
	runner, err := sweep.New(eng, spec)
	if err != nil {
		fatal(err)
	}
	emit, finish := emitter(*format)
	if err := runner.Run(ctx, emit); err != nil {
		fatal(err)
	}
	finish()
}

// emitter returns the per-point writer for a grid output format plus a
// final flush.
func emitter(format string) (func(cat.SweepPoint) error, func()) {
	switch format {
	case "ndjson":
		enc := sweep.NewLineEncoder(os.Stdout)
		return func(p cat.SweepPoint) error {
			return enc.NDJSON(p)
		}, func() {}
	case "csv":
		enc := sweep.NewLineEncoder(os.Stdout)
		if err := enc.CSVHeader(); err != nil {
			fatal(err)
		}
		return func(p cat.SweepPoint) error {
			return enc.CSVRecord(p)
		}, func() {}
	case "table":
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "Domain\tAccelerator\tParams\tSubbatch\tTFLOPs/step\tTB/step\tIntensity\tFootprint GB\tStep (s)\tUtil\tFits")
		return func(p cat.SweepPoint) error {
				if p.Error != "" {
					fmt.Fprintf(tw, "%s\t%s\t%.3g\t%.0f\terror: %s\n",
						p.Domain, p.Accelerator, p.ParamTarget, p.Subbatch, p.Error)
					return nil
				}
				fmt.Fprintf(tw, "%s\t%s\t%.3g\t%.0f\t%.1f\t%.2f\t%.1f\t%.1f\t%.3g\t%.1f%%\t%v\n",
					p.Domain, p.Accelerator, p.Params, p.Subbatch,
					p.FLOPsPerStep/1e12, p.BytesPerStep/1e12, p.Intensity,
					p.FootprintBytes/1e9, p.StepSeconds, 100*p.Utilization, p.FitsMemory)
				return nil
			}, func() {
				tw.Flush()
			}
	default:
		fatalf("unknown -format %q (ndjson, csv, table)", format)
		return nil, nil
	}
}

// resolveAccelerators parses the -accel list: names, aliases, @file.json,
// "all" for the whole catalog, empty for the paper's target.
func resolveAccelerators(list string) ([]cat.Accelerator, error) {
	if list == "" {
		return []cat.Accelerator{cat.TargetAccelerator()}, nil
	}
	if list == "all" {
		return cat.Accelerators(), nil
	}
	var out []cat.Accelerator
	for _, ref := range splitList(list) {
		acc, err := cat.ResolveAccelerator(ref)
		if err != nil {
			return nil, err
		}
		out = append(out, acc)
	}
	return out, nil
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
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

func fatal(err error) {
	slog.Error(err.Error())
	os.Exit(1)
}

func fatalf(format string, args ...any) {
	slog.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}
