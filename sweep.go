package catamount

import (
	"context"
	"fmt"
	"io"

	"catamount/internal/costmodel"
	"catamount/internal/sweep"
)

// SweepSpec describes a bulk evaluation grid: domains × parameter targets ×
// subbatches × accelerators. See internal/sweep.Spec for field semantics;
// this is also the JSON schema of the catamountd POST /v1/sweep endpoint.
type SweepSpec = sweep.Spec

// SweepPoint is one grid evaluation result, streamed in deterministic
// order; failed points carry Error instead of Requirements.
type SweepPoint = sweep.Point

// Sweep evaluates a bulk grid through the session's compiled models,
// streaming every point through yield in deterministic order (domain-major,
// then parameter target, then subbatch, then accelerator) while cells
// evaluate concurrently across a worker pool. Model build/compile, size
// solves, and characterizations are amortized across the whole grid —
// every accelerator of a cell shares one characterization — so a
// five-accelerator grid costs roughly one-fifth of the equivalent
// per-point Analyze loop before worker parallelism is even counted.
//
// Failures are per-point (SweepPoint.Error), not fail-the-grid; Sweep
// itself returns an error only for an invalid spec, a cancelled context,
// or a failing yield.
func (e *Engine) Sweep(ctx context.Context, spec SweepSpec, yield func(SweepPoint) error) error {
	r, err := sweep.New(e, spec)
	if err != nil {
		return err
	}
	return r.Run(ctx, yield)
}

// SweepAll is Sweep collected into a slice, for callers that want the grid
// in memory rather than streamed.
func (e *Engine) SweepAll(ctx context.Context, spec SweepSpec) ([]SweepPoint, error) {
	r, err := sweep.New(e, spec)
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, 0, r.Points())
	if err := r.Run(ctx, func(p SweepPoint) error {
		out = append(out, p)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteFrontierGrid renders Table 3 on each accelerator in order — the
// paper's frontier grid from one invocation. The per-accelerator output is
// byte-identical to calling FrontierTable and PrintTable3For yourself with
// the same header line.
func (e *Engine) WriteFrontierGrid(w io.Writer, accs []Accelerator) error {
	return e.WriteFrontierGridWith(w, accs, nil)
}

// WriteFrontierGridWith is WriteFrontierGrid under a pluggable step-time
// backend (nil means the default): non-default backends are named in each
// table's header line so grid outputs stay self-describing.
func (e *Engine) WriteFrontierGridWith(w io.Writer, accs []Accelerator, cm costmodel.Model) error {
	for i, acc := range accs {
		if i > 0 {
			fmt.Fprintln(w)
		}
		rows, err := e.FrontierTableWith(acc, cm)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Table 3: training requirements projected to target accuracy on %s%s\n",
			acc.Name, costModelSuffix(cm))
		PrintTable3For(w, rows, acc)
	}
	return nil
}

// WriteFigure11GridWith emits the Figure 11 subbatch sweep under the
// step-time backend cm (nil means the default) as CSV for each accelerator
// in order, separated by an accelerator comment line.
func (e *Engine) WriteFigure11GridWith(w io.Writer, accs []Accelerator, cm costmodel.Model) error {
	for i, acc := range accs {
		if i > 0 {
			fmt.Fprintln(w)
		}
		data, err := e.Figure11With(acc, cm)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# figure 11 on %s%s\n", acc.Name, costModelSuffix(cm))
		WriteFigure11CSV(w, data)
	}
	return nil
}

// WriteFigure12GridWith emits the Figure 12 data-parallel scaling sweep
// under the step-time backend cm (nil means the default) as CSV for each
// accelerator in order, separated by an accelerator comment line.
func (e *Engine) WriteFigure12GridWith(w io.Writer, accs []Accelerator, cm costmodel.Model) error {
	for i, acc := range accs {
		if i > 0 {
			fmt.Fprintln(w)
		}
		data, err := e.Figure12OnWith(acc, cm)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# figure 12 on %s%s\n", acc.Name, costModelSuffix(cm))
		WriteFigure12CSV(w, data)
	}
	return nil
}

// costModelSuffix labels grid headers with a non-default backend; the
// default stays unlabeled so pinned outputs are unchanged.
func costModelSuffix(cm costmodel.Model) string {
	if cm == nil || cm.Name() == costmodel.Default().Name() {
		return ""
	}
	return fmt.Sprintf(" (costmodel %s)", cm.Name())
}
