// Command benchmark is catamount's end-to-end benchmark. One invocation
// sets up the analysis engine (and, for serve_mixed, the HTTP service),
// runs one workload's seeded op sequence, checks the outputs, and prints
// the metrics as the last line of standard output:
//
//	go run . --workload sweep_grid --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the line holds the end-to-end metrics; with --trace 1 it
// holds the per-layer split, measured on a second, traced pass. See
// README.md for the workloads, the metrics and how they are measured.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand/v2"
	"os"
	"runtime"

	cat "catamount"
)

func main() {
	ctx := context.Background()
	if code, ok := runColdSetup(ctx, os.Stdout, os.Stderr); ok {
		os.Exit(code)
	}
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// workload is one named traffic pattern.
type workload interface {
	// start is the workload's share of set-up, after the engine is built:
	// serve_mixed starts its server and warms the hot set.
	start(ctx context.Context, eng *cat.Engine) error
	// stop releases what start acquired.
	stop()
	// pass runs one seeded op sequence against eng and reports it. With
	// pc.traced it also records the per-layer split.
	pass(ctx context.Context, eng *cat.Engine, pc passConfig) (*passResult, error)
}

// passConfig selects one op sequence.
type passConfig struct {
	stream uint64 // seeds the sequence together with the run seed
	blocks int    // op blocks to run; every block has the same mix
	traced bool
}

// Random streams. The run seed and a stream name one sequence, so the
// warm-up, timed and traced passes of one run never share inputs.
const (
	streamFixed  uint64 = 1 // choices fixed for the whole run: hot set, plan targets
	streamWarm   uint64 = 2
	streamTraced uint64 = 3
	streamTimed  uint64 = 16 // plus the segment number
)

// passResult is one pass as the client saw it.
type passResult struct {
	latencies []float64 // seconds per op, as the client saw it
	// blockSecs holds the block wall times; every block has the same mix
	// and does blockWork units of work (points, searches or requests).
	blockSecs []float64
	blockWork float64
	attempted int
	failed    int
	// verify runs the output checks that need the engine again; it is
	// called after the live heap is measured and returns failures found.
	verify func(ctx context.Context) (int, error)
	// layers holds the per-layer metrics of a traced pass.
	layers metrics
}

// options is one invocation.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	setups   int // set-ups timed, one before each timed segment
}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "sweep_grid":
		return &sweepGrid{seed: o.seed}, nil
	case "plan_search":
		return newPlanSearch(o.seed), nil
	case "serve_mixed":
		return newServeMixed(o.seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (sweep_grid, plan_search, serve_mixed)", o.workload)
}

// blocksPerSecond sizes each workload's timed pass from --seconds: a fixed
// op count, the same on every run with the same arguments, chosen to take
// about that long on a 2-CPU machine. The pass runs in `setups` equal
// segments.
var blocksPerSecond = map[string]float64{
	"sweep_grid":  0.55, // 3 sweeps of 800 points
	"plan_search": 0.8,  // 20 searches
	"serve_mixed": 6,    // 100 requests
}

// warmBlocks is the untimed warm-up before the timed pass.
var warmBlocks = map[string]int{"sweep_grid": 1, "plan_search": 1, "serve_mixed": 3}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "sweep_grid, plan_search or serve_mixed")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.IntVar(&o.seconds, "seconds", 10, "sizes the timed op sequence to about this many seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer split from a traced pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 || o.seconds < 1 {
		fmt.Fprintln(stderr, "benchmark: --trace must be 0 or 1 and --seconds at least 1")
		return 2
	}
	o.trace = trace == 1
	o.setups = setups
	if err := report(ctx, o, stdout); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// setups is how many set-ups a run times for setup_s, which reports their
// median. The timed pass is split into as many segments, with a set-up
// before each, so that set-up and timed work are both sampled across the
// whole run rather than in one window of it: on a shared machine the
// speed drifts over tens of seconds. The first set-up is the run's own;
// each later one runs in a cold process of its own (coldSetUp).
const setups = 3

// report runs o and prints the run description and, last, the result.
func report(ctx context.Context, o options, stdout io.Writer) error {
	res, info, err := execute(ctx, o)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(info); err != nil {
		return err
	}
	return enc.Encode(res)
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// runInfo describes the run: the sample counts behind the latency
// percentiles and how clean the machine was.
type runInfo struct {
	Workload    string    `json:"workload"`
	Seed        uint64    `json:"seed"`
	Trace       int       `json:"trace"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	StealS      float64   `json:"steal_s"`
	SetupS      []float64 `json:"setup_s_each"`
	Samples     int       `json:"latency_samples"`
	BeyondP90   int       `json:"samples_beyond_p90"`
	TimedBlocks int       `json:"timed_blocks"`
}

func execute(ctx context.Context, o options) (*result, *runInfo, error) {
	w, err := newWorkload(o)
	if err != nil {
		return nil, nil, err
	}
	m := metrics{}
	if o.trace {
		// The traced run reports the cold-build split instead of setup_s.
		// Layers the workload does not reach keep these zeros.
		for _, pl := range perLayer {
			m.set(pl.name, pl.unit, 0)
		}
		if err := buildSplit(m); err != nil {
			return nil, nil, err
		}
	}
	eng, first, err := setUp(ctx, w)
	if err != nil {
		return nil, nil, err
	}
	defer w.stop()
	setupSecs := []float64{first}

	warm, err := w.pass(ctx, eng, passConfig{stream: streamWarm, blocks: warmBlocks[o.workload]})
	if err != nil {
		return nil, nil, err
	}
	passes := []*passResult{warm}

	segBlocks := max(1, int(math.Round(float64(o.seconds)*blocksPerSecond[o.workload]/float64(o.setups))))
	timed := &passResult{}
	steal0, mem0 := stealSeconds(), readMem()
	for seg := range o.setups {
		if seg > 0 && !o.trace {
			// The next set-up, between timed segments, in a cold process.
			secs, err := coldSetUp(ctx, o)
			if err != nil {
				return nil, nil, err
			}
			setupSecs = append(setupSecs, secs)
		}
		p, err := w.pass(ctx, eng, passConfig{stream: streamTimed + uint64(seg), blocks: segBlocks})
		if err != nil {
			return nil, nil, err
		}
		timed.add(p)
		passes = append(passes, p)
	}
	mem1, steal1 := readMem(), stealSeconds()
	heapMB := liveHeapMB()
	info := &runInfo{
		Workload:    o.workload,
		Seed:        o.seed,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		StealS:      steal1 - steal0,
		SetupS:      setupSecs,
		Samples:     len(timed.latencies),
		BeyondP90:   beyond(timed.latencies, 0.9),
		TimedBlocks: segBlocks * o.setups,
	}

	if !o.trace {
		m.set("setup_s", "s", median(setupSecs))
		m.set("live_heap_mb", "MB", heapMB)
		m.set("throughput_per_s", "1/s", timed.throughput())
		m.set("latency_p50_ms", "ms", quantile(timed.latencies, 0.5)*1e3)
		m.set("latency_p90_ms", "ms", quantile(timed.latencies, 0.9)*1e3)
	} else {
		info.Trace = 1
		ops := float64(len(timed.latencies))
		m.set("runtime.alloc_bytes_per_op", "B", float64(mem1.totalAlloc-mem0.totalAlloc)/ops)
		m.set("runtime.allocs_per_op", "count", float64(mem1.mallocs-mem0.mallocs)/ops)
		m.set("runtime.gc_cycles", "count", float64(mem1.numGC-mem0.numGC))
		steal2 := stealSeconds()
		traced, err := w.pass(ctx, eng, passConfig{stream: streamTraced, blocks: segBlocks * o.setups, traced: true})
		if err != nil {
			return nil, nil, err
		}
		maps.Copy(m, traced.layers)
		m.set("bench.trace_overhead_ratio", "ratio", timed.throughput()/traced.throughput())
		m.set("bench.steal_s", "s", info.StealS+stealSeconds()-steal2)
		m.set("bench.gomaxprocs", "count", float64(info.GOMAXPROCS))
		passes = append(passes, traced)
	}
	res := &result{Metrics: m}
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		if p.verify == nil {
			continue
		}
		failed, err := p.verify(ctx)
		if err != nil {
			return nil, nil, err
		}
		res.Failed += failed
	}
	res.Correct = res.Failed == 0
	return res, info, nil
}

// perLayer is every per-layer metric the traced run prints. A layer a
// workload does not reach reads 0.
var perLayer = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	for _, stage := range []string{"models.build_s", "graph.derive_s", "core.compile_s"} {
		add("s", stage)
		for _, d := range cat.Domains() {
			add("s", stage+"."+string(d))
		}
	}
	add("count", "graph.cost_programs")
	add("MB", "runtime.setup_alloc_mb")
	add("s", "graph.footprint_s", "symbolic.eval_s", "costmodel.steptime_s.graph",
		"costmodel.steptime_s.perop", "sweep.chunk_s", "sweep.encode_s", "plan.run_s",
		"plan.evaluate_s", "plan.setup_self_s", "core.characterize_s", "server.request_s",
		"http.transport_s", "bench.steal_s", "bench.unattributed_s")
	add("ns", "graph.footprint_ns_per_node_row")
	add("ratio", "sweep.worker_busy_ratio", "shard.hit_ratio", "bench.trace_overhead_ratio")
	add("count", "sweep.points", "plan.candidates", "server.coalesced", "server.rejected",
		"server.timeouts", "shard.hits", "shard.misses", "shard.evictions",
		"runtime.allocs_per_op", "runtime.gc_cycles", "bench.gomaxprocs")
	add("ms", "server.miss_latency_p50_ms", "server.hit_latency_p50_ms", "server.hit_latency_p99_ms")
	add("B", "runtime.alloc_bytes_per_op")
	return out
}()

// throughput is the work done per second of the pass: its work over the
// sum of its block times.
func (p *passResult) throughput() float64 {
	var total float64
	for _, s := range p.blockSecs {
		total += s
	}
	return p.blockWork * float64(len(p.blockSecs)) / total
}

// add appends segment q's op latencies and block times to p.
func (p *passResult) add(q *passResult) {
	p.latencies = append(p.latencies, q.latencies...)
	p.blockSecs = append(p.blockSecs, q.blockSecs...)
	p.blockWork = q.blockWork
}

// newRand returns the generator of one stream of a run.
func newRand(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// logUniform draws from [lo, hi) uniformly in log space.
func logUniform(r *rand.Rand, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + r.Float64()*(math.Log(hi)-math.Log(lo)))
}

// logStratum draws uniformly in log space from the k-th of n equal
// log-space slices of [lo, hi). A cost that depends on the parameter count
// then has the same spread in every block and every run.
func logStratum(r *rand.Rand, lo, hi float64, k, n int) float64 {
	step := math.Pow(hi/lo, 1/float64(n))
	return logUniform(r, lo*math.Pow(step, float64(k)), lo*math.Pow(step, float64(k+1)))
}
