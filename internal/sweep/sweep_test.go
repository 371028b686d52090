package sweep

import (
	"context"
	stdcsv "encoding/csv"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"

	"catamount/internal/core"
	"catamount/internal/hw"
	"catamount/internal/models"
)

// sharedSource keeps model build+compile cost to once for the whole test
// binary.
var sharedSource = newBuildSource()

// buildSource is a minimal memoizing SessionSource for tests: a fresh one
// reproduces the cold (build+compile per domain) experience without
// dragging the full Engine in.
type buildSource struct {
	mu sync.Mutex
	m  map[models.Domain]*buildEntry
}

type buildEntry struct {
	once sync.Once
	a    *core.Analyzer
	err  error
}

func newBuildSource() *buildSource {
	return &buildSource{m: make(map[models.Domain]*buildEntry)}
}

// Analyzer builds and compiles a domain's model at most once.
func (s *buildSource) Analyzer(d models.Domain) (*core.Analyzer, error) {
	s.mu.Lock()
	ent, ok := s.m[d]
	if !ok {
		ent = &buildEntry{}
		s.m[d] = ent
	}
	s.mu.Unlock()
	ent.once.Do(func() {
		m, err := models.Build(d)
		if err != nil {
			ent.err = err
			return
		}
		ent.a, ent.err = core.NewAnalyzer(m)
	})
	return ent.a, ent.err
}

func collect(t *testing.T, r *Runner) []Point {
	t.Helper()
	var out []Point
	if err := r.Run(context.Background(), func(p Point) error {
		out = append(out, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string // error substring
	}{
		{"no params", Spec{}, "needs params"},
		{"unknown domain", Spec{Domains: []string{"tabular"}, Params: []float64{1e8}}, "unknown domain"},
		{"negative param", Spec{Params: []float64{-1}}, "positive finite"},
		{"both param forms", Spec{Params: []float64{1e8}, ParamMin: 1, ParamMax: 2, ParamSteps: 2}, "mutually exclusive"},
		{"inverted range", Spec{ParamMin: 1e9, ParamMax: 1e8, ParamSteps: 4}, "param_min < param_max"},
		{"one step", Spec{ParamMin: 1e8, ParamMax: 1e9, ParamSteps: 1}, "param_steps >= 2"},
		{"bad subbatch", Spec{Params: []float64{1e8}, Subbatches: []float64{0}}, "subbatches must be positive"},
		{"unknown accelerator", Spec{Params: []float64{1e8}, Accelerators: []string{"abacus"}}, "unknown accelerator"},
		{"nameless custom", Spec{Params: []float64{1e8}, Custom: []hw.Accelerator{{PeakFLOPS: 1}}}, "missing \"name\""},
		{"invalid custom", Spec{Params: []float64{1e8},
			Custom: []hw.Accelerator{{Name: "broken", PeakFLOPS: -1}}}, "must be positive"},
	}
	for _, tc := range cases {
		_, err := New(sharedSource, tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestDefaultsAndGridSize(t *testing.T) {
	// Empty domains/accelerators default to all five and the Table 4 target;
	// empty subbatches mean one cell per (domain, params) at the domain's
	// profiling subbatch.
	r, err := New(sharedSource, Spec{ParamMin: 1e8, ParamMax: 1e9, ParamSteps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Points(), 5*3*1*1; got != want {
		t.Fatalf("Points() = %d, want %d", got, want)
	}
	pts := collect(t, r)
	if len(pts) != r.Points() {
		t.Fatalf("yielded %d points, want %d", len(pts), r.Points())
	}
	byDomain := map[models.Domain]float64{}
	for _, p := range pts {
		if p.Error != "" {
			t.Fatalf("point %d failed: %s", p.Seq, p.Error)
		}
		if p.Accelerator != hw.TargetAccelerator().Name {
			t.Fatalf("point %d accelerator = %q", p.Seq, p.Accelerator)
		}
		byDomain[p.Domain] = p.Subbatch
	}
	for _, d := range models.AllDomains {
		m := models.MustBuild(d)
		if byDomain[d] != m.DefaultBatch {
			t.Errorf("%s default subbatch = %v, want profiling subbatch %v", d, byDomain[d], m.DefaultBatch)
		}
	}
}

func TestDeterministicOrderAcrossWorkerCounts(t *testing.T) {
	spec := Spec{
		Domains:      []string{"wordlm", "nmt"},
		Params:       []float64{5e7, 2e8},
		Subbatches:   []float64{32, 128},
		Accelerators: []string{"v100", "a100"},
	}
	var runs [][]Point
	for _, workers := range []int{1, 3, 8} {
		spec.Workers = workers
		r, err := New(sharedSource, spec)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, collect(t, r))
	}
	for i, pts := range runs {
		if len(pts) != len(runs[0]) {
			t.Fatalf("run %d yielded %d points, run 0 yielded %d", i, len(pts), len(runs[0]))
		}
		for j := range pts {
			if pts[j].Seq != j {
				t.Fatalf("run %d point %d has seq %d", i, j, pts[j].Seq)
			}
			a, b := pts[j], runs[0][j]
			if a.Domain != b.Domain || a.Accelerator != b.Accelerator ||
				a.ParamTarget != b.ParamTarget || a.Subbatch != b.Subbatch ||
				*a.Requirements != *b.Requirements || a.StepSeconds != b.StepSeconds {
				t.Fatalf("run %d point %d diverges from run 0:\n%+v\nvs\n%+v", i, j, a, b)
			}
		}
	}
	// Spot-check the documented order: domain-major, then params, then
	// subbatch, then accelerator.
	pts := runs[0]
	if pts[0].Domain != "wordlm" || pts[0].ParamTarget != 5e7 || pts[0].Subbatch != 32 ||
		pts[0].Accelerator != "target-v100-class" {
		t.Fatalf("point 0 = %+v", pts[0])
	}
	if pts[1].Accelerator != "a100-class" {
		t.Fatalf("point 1 accelerator = %q, want a100-class", pts[1].Accelerator)
	}
	if pts[2].Subbatch != 128 {
		t.Fatalf("point 2 subbatch = %v, want 128", pts[2].Subbatch)
	}
	if pts[8].Domain != "nmt" {
		t.Fatalf("point 8 domain = %q, want nmt", pts[8].Domain)
	}
}

// ndjsonFrom streams r from startSeq, one NDJSON line per point: every
// byte a client of /v1/sweep, a job or cmd/sweep would see.
func ndjsonFrom(t *testing.T, r *Runner, startSeq int) []string {
	t.Helper()
	var out []string
	var line strings.Builder
	if err := r.RunFrom(context.Background(), startSeq, func(p Point) error {
		line.Reset()
		if err := WriteNDJSON(&line, p); err != nil {
			return err
		}
		out = append(out, line.String())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunFromYieldsRunSuffix pins resume exactness: for every resume point
// s in [0, Points()], RunFrom yields exactly the Seq >= s suffix of Run,
// byte for byte, and Run's bytes do not depend on the worker count, which
// sets the task geometry. Two grids: a plan search's (one domain × one
// target × plan's seven default subbatches × the catalog), whose tasks end
// in the middle of a parameter's rows, and five domains with a failing
// 1e300 target, whose heavy domains split into several tasks.
func TestRunFromYieldsRunSuffix(t *testing.T) {
	grids := []struct {
		name string
		spec Spec
	}{
		{"plan", Spec{
			Domains:    []string{"wordlm"},
			Params:     []float64{1e8},
			Subbatches: []float64{8, 16, 32, 64, 128, 256, 512},
			Accelerators: []string{
				"target-v100-class", "a100-class", "h100-class", "tpuv3-class", "cpu-class",
			},
		}},
		{"five domains", Spec{
			Params:       []float64{1e8, 1e300},
			Accelerators: []string{"v100", "a100"},
		}},
	}
	for _, g := range grids {
		var want []string
		for _, workers := range []int{1, 2, 3, 8} {
			spec := g.spec
			spec.Workers = workers
			r, err := New(sharedSource, spec)
			if err != nil {
				t.Fatal(err)
			}
			full := ndjsonFrom(t, r, 0)
			if len(full) != r.Points() {
				t.Fatalf("%s, %d workers: Run yielded %d points, want %d", g.name, workers, len(full), r.Points())
			}
			if want == nil {
				want = full
			} else if !slices.Equal(full, want) {
				t.Fatalf("%s: Run at %d workers differs from Run at 1 worker", g.name, workers)
			}
			for s := 0; s <= r.Points(); s++ {
				if got := ndjsonFrom(t, r, s); !slices.Equal(got, full[s:]) {
					t.Fatalf("%s, %d workers: RunFrom(%d) yielded %d points, not the %d-point suffix of Run",
						g.name, workers, s, len(got), len(full)-s)
				}
			}
		}
	}
}

// TestTaskGeometry checks splitTasks on random grids against its contract:
// the tasks cover every row from the resume row onwards exactly once,
// contiguous and in Seq order; each stays in one domain and holds 1 to 32
// rows; a task of more than one row costs at most the split rows' total
// cost over 4 × the worker count; and each domain uses the fewest tasks
// those limits allow, of near-equal size, so of equal cost.
func TestTaskGeometry(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 7))
	for trial := 0; trial < 5000; trial++ {
		nodes := make([]int, 1+rng.IntN(6))
		for i := range nodes {
			nodes[i] = 1 + rng.IntN(60000)
		}
		rowsPerDomain := 1 + rng.IntN(100)
		rows := len(nodes) * rowsPerDomain
		from := rng.IntN(rows + 1)
		workers := 1 + rng.IntN(16)
		tasks := splitTasks(nodes, rowsPerDomain, from, workers)

		cost := 0
		for row := from; row < rows; row++ {
			cost += nodes[row/rowsPerDomain]
		}
		budget := cost / (4 * workers)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("nodes %v, %d rows per domain, from row %d, %d workers: %v\n%s",
				nodes, rowsPerDomain, from, workers, tasks, fmt.Sprintf(format, args...))
		}
		next := from
		perDomain := map[int][]int{} // domain -> task sizes
		for _, tk := range tasks {
			n, di := tk.hi-tk.lo, tk.lo/rowsPerDomain
			switch {
			case tk.lo != next:
				fail("task %v does not start at row %d", tk, next)
			case n < 1 || n > 32:
				fail("task %v holds %d rows, want 1 to 32", tk, n)
			case (tk.hi-1)/rowsPerDomain != di:
				fail("task %v crosses a domain boundary", tk)
			case n > 1 && n*nodes[di] > budget:
				fail("task %v costs %d, over the budget %d", tk, n*nodes[di], budget)
			}
			perDomain[di] = append(perDomain[di], n)
			next = tk.hi
		}
		if next != rows {
			fail("tasks end at row %d, want %d", next, rows)
		}
		for di, sizes := range perDomain {
			lo, hi := slices.Min(sizes), slices.Max(sizes)
			if hi-lo > 1 {
				fail("domain %d task sizes %v differ by more than one row", di, sizes)
			}
			if limit := min(max(budget/nodes[di], 1), 32); len(sizes) > 1 && (len(sizes)-1)*limit >= sum(sizes) {
				fail("domain %d uses %d tasks where %d of at most %d rows would do", di, len(sizes), len(sizes)-1, limit)
			}
		}
	}

	// A plan search is one domain × 7 subbatches: with 2 workers it must
	// spread over both, whatever the domain's size.
	for _, n := range []int{570, 47745} {
		if tasks := splitTasks([]int{n}, 7, 0, 2); len(tasks) < 2 {
			t.Errorf("7-row grid of %d-node rows at 2 workers: %v, want at least 2 tasks", n, tasks)
		}
	}
}

func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

func TestPerPointErrorsDoNotTruncateGrid(t *testing.T) {
	// 1e300 parameters is unreachable for any domain: that cell must fail
	// point by point while the 1e8 cells stream through untouched.
	r, err := New(sharedSource, Spec{
		Domains:      []string{"wordlm", "charlm"},
		Params:       []float64{1e8, 1e300},
		Accelerators: []string{"v100", "a100"},
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := collect(t, r)
	if len(pts) != 2*2*1*2 {
		t.Fatalf("yielded %d points, want 8", len(pts))
	}
	var failed, ok int
	for _, p := range pts {
		switch p.ParamTarget {
		case 1e300:
			if p.Error == "" || p.Requirements != nil {
				t.Fatalf("unreachable point %d: error=%q req=%v", p.Seq, p.Error, p.Requirements)
			}
			if !strings.Contains(p.Error, "unreachable") {
				t.Fatalf("point %d error = %q", p.Seq, p.Error)
			}
			failed++
		default:
			if p.Error != "" || p.Requirements == nil {
				t.Fatalf("healthy point %d: error=%q", p.Seq, p.Error)
			}
			ok++
		}
	}
	if failed != 4 || ok != 4 {
		t.Fatalf("failed=%d ok=%d, want 4 and 4", failed, ok)
	}
}

// TestOverflowingPointsBecomeErrors: a subbatch of 1e300 overflows an
// image point's FLOPs to +Inf, which JSON cannot encode. That row's points
// must carry an error naming the field, and the grid must encode as NDJSON
// and CSV with no non-finite value, while the healthy row streams as
// usual. A step time that overflows on one accelerator fails that point
// alone.
func TestOverflowingPointsBecomeErrors(t *testing.T) {
	tiny := hw.TargetAccelerator()
	tiny.Name = "tiny-peak"
	tiny.PeakFLOPS = 1e-300
	r, err := New(sharedSource, Spec{
		Domains:      []string{"image"},
		Params:       []float64{1e8},
		Subbatches:   []float64{32, 1e300},
		Accelerators: []string{"v100"},
		Custom:       []hw.Accelerator{tiny},
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := collect(t, r)
	if len(pts) != 4 {
		t.Fatalf("yielded %d points, want 4", len(pts))
	}
	for _, p := range pts {
		var want string
		switch {
		case p.Subbatch == 1e300:
			want = "sweep: flops_per_step is +Inf: the point overflows float64"
		case p.Accelerator == tiny.Name:
			want = "sweep: step_seconds is +Inf: the point overflows float64"
		}
		if p.Error != want || (p.Requirements == nil) != (want != "") {
			t.Fatalf("point %d (%s, subbatch %g): error %q, requirements %v; want error %q",
				p.Seq, p.Accelerator, p.Subbatch, p.Error, p.Requirements, want)
		}
	}
	var buf strings.Builder
	enc := NewLineEncoder(&buf)
	if err := enc.CSVHeader(); err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if err := enc.NDJSON(p); err != nil {
			t.Fatalf("point %d: %v", p.Seq, err)
		}
		if err := enc.CSVRecord(p); err != nil {
			t.Fatalf("point %d: %v", p.Seq, err)
		}
	}
	if out := buf.String(); strings.Contains(out, ",+Inf") || strings.Contains(out, "NaN") {
		t.Fatalf("output holds a non-finite value:\n%s", out)
	}
}

func TestRunCancellation(t *testing.T) {
	r, err := New(sharedSource, Spec{
		Params:     []float64{5e7, 1e8, 2e8, 4e8},
		Subbatches: []float64{16, 32, 64, 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	runErr := r.Run(ctx, func(Point) error {
		seen++
		if seen == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", runErr)
	}
	if seen >= r.Points() {
		t.Fatalf("cancellation did not stop the stream (%d of %d points)", seen, r.Points())
	}
}

func TestYieldErrorAborts(t *testing.T) {
	r, err := New(sharedSource, Spec{Params: []float64{5e7, 1e8, 2e8}})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("client went away")
	seen := 0
	runErr := r.Run(context.Background(), func(Point) error {
		seen++
		if seen == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(runErr, boom) {
		t.Fatalf("Run = %v, want the yield error", runErr)
	}
	if seen != 2 {
		t.Fatalf("yield called %d times after abort, want 2", seen)
	}
}

func TestRunIsRepeatable(t *testing.T) {
	// The same Runner may stream its grid any number of times; results must
	// match exactly.
	r, err := New(sharedSource, Spec{Domains: []string{"nmt"}, Params: []float64{1e8}})
	if err != nil {
		t.Fatal(err)
	}
	a, b := collect(t, r), collect(t, r)
	if len(a) != len(b) {
		t.Fatalf("runs yielded %d and %d points", len(a), len(b))
	}
	for i := range a {
		if *a[i].Requirements != *b[i].Requirements {
			t.Fatalf("point %d differs across runs", i)
		}
	}
}

func TestConcurrentAnalyzerBuildIsSafe(t *testing.T) {
	// A fresh source with several workers forces concurrent first-touch
	// model builds through the memoizing source.
	r, err := New(newBuildSource(), Spec{
		Domains: []string{"wordlm", "charlm", "nmt"},
		Params:  []float64{5e7},
		Workers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Run(context.Background(), func(Point) error { return nil })
		}()
	}
	wg.Wait()
}

// TestEncodeFormats checks the two wire encodings stay parseable and
// aligned: NDJSON one object per line, CSV header/row column counts equal,
// error rows carrying the message.
func TestEncodeFormats(t *testing.T) {
	r, err := New(sharedSource, Spec{
		Domains: []string{"wordlm"},
		Params:  []float64{1e8, 1e300},
	})
	if err != nil {
		t.Fatal(err)
	}
	var nd, csv strings.Builder
	csv.WriteString(CSVHeader())
	err = r.Run(context.Background(), func(p Point) error {
		if err := WriteNDJSON(&nd, p); err != nil {
			return err
		}
		csv.WriteString(CSVRecord(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ndLines := strings.Split(strings.TrimRight(nd.String(), "\n"), "\n")
	if len(ndLines) != 2 {
		t.Fatalf("ndjson has %d lines, want 2", len(ndLines))
	}
	records, err := stdcsv.NewReader(strings.NewReader(csv.String())).ReadAll()
	if err != nil {
		t.Fatalf("csv stream does not parse: %v", err)
	}
	if len(records) != 3 {
		t.Fatalf("csv has %d records, want header + 2 rows", len(records))
	}
	for i, rec := range records[1:] {
		if len(rec) != len(records[0]) {
			t.Errorf("csv row %d has %d fields, header has %d", i, len(rec), len(records[0]))
		}
	}
	if !strings.Contains(ndLines[0], `"flops_per_step"`) {
		t.Errorf("healthy ndjson line missing requirements: %s", ndLines[0])
	}
	if !strings.Contains(ndLines[1], `"error"`) || strings.Contains(ndLines[1], `"flops_per_step"`) {
		t.Errorf("failed ndjson line should carry error only: %s", ndLines[1])
	}
	if errCol := records[2][len(records[2])-1]; !strings.Contains(errCol, "unreachable") {
		t.Errorf("failed csv row error column = %q", errCol)
	}
}
