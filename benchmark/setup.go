package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	cat "catamount"
	"catamount/internal/core"
	"catamount/internal/models"
)

// buildEngine is the set-up every workload shares: one Engine that builds
// and compiles the five domains one after another, in Table 1 order.
func buildEngine() (*cat.Engine, error) {
	eng := cat.NewEngine()
	for _, d := range models.AllDomains {
		if _, err := eng.Analyzer(d); err != nil {
			return nil, fmt.Errorf("set-up %s: %w", d, err)
		}
	}
	return eng, nil
}

// setUp builds an engine and starts w on it, from nothing: the five
// domains one after another in Table 1 order, the workload's own start
// (server and hot-set warm-up for serve_mixed), then a forced GC. It
// returns the engine and the seconds all that took.
func setUp(ctx context.Context, w workload) (*cat.Engine, float64, error) {
	start := time.Now()
	eng, err := buildEngine()
	if err != nil {
		return nil, 0, err
	}
	if err := w.start(ctx, eng); err != nil {
		w.stop()
		return nil, 0, err
	}
	runtime.GC()
	return eng, time.Since(start).Seconds(), nil
}

// coldSetupEnv names the environment variable that turns a process of
// this program into one cold set-up. Its value is "<workload>:<seed>".
const coldSetupEnv = "CATAMOUNT_BENCH_COLD_SETUP"

// coldSetUp times one set-up of o's workload in a fresh process of this
// same program, so that it starts cold as the run's first set-up does: no
// heap grown by the run, and no live engine or server for the collector
// to mark. It waits for the process to end.
func coldSetUp(ctx context.Context, o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s:%d", coldSetupEnv, o.workload, o.seed))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("cold set-up: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// runColdSetup is the whole life of a process that coldSetUp started: one
// set-up, timed as the run's first is, torn down, and its seconds printed
// on stdout. ok is false in any other process.
func runColdSetup(ctx context.Context, stdout, stderr io.Writer) (code int, ok bool) {
	spec, ok := os.LookupEnv(coldSetupEnv)
	if !ok {
		return 0, false
	}
	if err := coldSetupMain(ctx, spec, stdout); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1, true
	}
	return 0, true
}

func coldSetupMain(ctx context.Context, spec string, stdout io.Writer) error {
	name, seed, _ := strings.Cut(spec, ":")
	n, err := strconv.ParseUint(seed, 10, 64)
	if err != nil {
		return fmt.Errorf("%s=%q: %w", coldSetupEnv, spec, err)
	}
	w, err := newWorkload(options{workload: name, seed: n})
	if err != nil {
		return err
	}
	_, secs, err := setUp(ctx, w)
	if err != nil {
		return err
	}
	w.stop()
	_, err = fmt.Fprintln(stdout, strconv.FormatFloat(secs, 'g', -1, 64))
	return err
}

// buildSplit is the cold-build split the traced run reports: the same
// five domains built outside the Engine so each stage can be timed on its
// own — model construction (models.Build), symbolic cost derivation
// (Graph.WarmCosts) and lowering plus canonical-string dedup into programs
// (core.NewAnalyzer, whose Compile finds the costs already derived).
func buildSplit(m metrics) error {
	runtime.GC()
	before := readMem()
	var build, derive, compile float64
	programs := 0
	for _, d := range models.AllDomains {
		t0 := time.Now()
		mdl, err := models.Build(d)
		if err != nil {
			return err
		}
		t1 := time.Now()
		mdl.Graph.WarmCosts()
		t2 := time.Now()
		a, err := core.NewAnalyzer(mdl)
		if err != nil {
			return err
		}
		t3 := time.Now()
		programs += a.Compiled.NumCostPrograms()
		b, dv, c := t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
		m.set("models.build_s."+string(d), "s", b)
		m.set("graph.derive_s."+string(d), "s", dv)
		m.set("core.compile_s."+string(d), "s", c)
		build, derive, compile = build+b, derive+dv, compile+c
	}
	after := readMem()
	m.set("models.build_s", "s", build)
	m.set("graph.derive_s", "s", derive)
	m.set("core.compile_s", "s", compile)
	m.set("graph.cost_programs", "count", float64(programs))
	m.set("runtime.setup_alloc_mb", "MB", float64(after.totalAlloc-before.totalAlloc)/1e6)
	runtime.GC()
	return nil
}
