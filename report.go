package catamount

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"catamount/internal/hw"
)

// PrintTable1 renders the accuracy-scaling projections (paper Table 1).
func PrintTable1(w io.Writer, projs []Projection) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Domain\tCurrent SOTA\tDesired SOTA\tCurrent Data\tData Scale (computed)\tData Scale (paper)\tModel Scale (computed)\tModel Scale (paper)")
	for _, p := range projs {
		s := p.Spec
		fmt.Fprintf(tw, "%s\t%.3g %s\t%.3g %s\t%.3g %s\t%.0fx\t%.0fx\t%.1fx\t%.1fx\n",
			s.Name, s.CurrentSOTA, s.Metric, s.DesiredSOTA, s.Metric,
			s.CurrentDataSamples, s.SampleUnit,
			p.ComputedDataScale, p.PaperDataScale,
			p.ComputedModelScale, p.PaperModelScale)
	}
	tw.Flush()
}

// PrintTable2 renders the fitted asymptotic requirement models
// (paper Table 2).
func PrintTable2(w io.Writer, asyms []Asymptotics) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Domain\tAlg compute (FLOPs/param)\tAlg memory (Bytes/param)\tAlg op intensity (FLOP/B)\tMin footprint (Bytes/param)")
	for _, a := range asyms {
		fmt.Fprintf(tw, "%s\t%.0f b\t%.0f + %.0f b/sqrt(p)\t%s\t%.2f\n",
			a.Domain, a.Gamma, a.Lambda, a.Mu, a.IntensityForm(), a.Delta)
	}
	tw.Flush()
}

// PrintTable3 renders the frontier training requirements (paper Table 3)
// against the paper's Table 4 target.
func PrintTable3(w io.Writer, rows []Frontier) {
	PrintTable3For(w, rows, TargetAccelerator())
}

// PrintTable3For renders Table 3 with the memory-multiple column labeled
// for the accelerator the rows were projected on.
func PrintTable3For(w io.Writer, rows []Frontier, acc Accelerator) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Domain\tData size\tParams\tSubbatch\tTFLOPs/step\tTB/step\tMin mem (GB)\tStep (s)\tEpoch (days)\tMem multiple of %.0fGB\n",
		acc.MemCapacity/1e9)
	for _, f := range rows {
		fmt.Fprintf(tw, "%s\t%.3g %s\t%.3g\t%.0f\t%.0f\t%.1f\t%.0f\t%.1f\t%.3g\t%.1fx\n",
			f.Spec.Name, f.TargetDataSamples, f.Spec.SampleUnit, f.TargetParams,
			f.Subbatch, f.TFLOPsPerStep, f.TBPerStep, f.FootprintGB,
			f.StepSeconds, f.EpochDays, f.MemoryMultiple)
	}
	tw.Flush()
}

// PrintTable4 renders the target accelerator configuration (paper Table 4).
func PrintTable4(w io.Writer, acc Accelerator) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Component\tConfiguration")
	fmt.Fprintf(tw, "Compute Throughput, 32-bit\t%.2f TFLOP/s\n", acc.PeakFLOPS/1e12)
	fmt.Fprintf(tw, "On-chip Cache\t%.0f MB\n", acc.CacheBytes/1e6)
	fmt.Fprintf(tw, "Memory Bandwidth\t%.0f GB/s\n", acc.MemBandwidth/1e9)
	fmt.Fprintf(tw, "Memory Capacity (off-chip)\t%.0f GB\n", acc.MemCapacity/1e9)
	fmt.Fprintf(tw, "Inter-device Bandwidth\t%.0f GB/s\n", acc.InterconnectBW/1e9)
	fmt.Fprintf(tw, "Ridge point\t%.1f FLOP/B (%.1f achievable)\n",
		acc.RidgePoint(), acc.EffectiveRidgePoint())
	tw.Flush()
}

// PrintTable5 renders the word-LM case study (paper Table 5) against the
// paper's Table 4 target.
func PrintTable5(w io.Writer, cs *CaseStudy) {
	PrintTable5For(w, cs, TargetAccelerator())
}

// PrintTable5For renders Table 5 with the capacity column labeled for the
// accelerator the case study ran on.
func PrintTable5For(w io.Writer, cs *CaseStudy, acc Accelerator) {
	fmt.Fprintf(w, "Case-study word LM: %s\n", cs.Model.Name)
	fmt.Fprintf(w, "  solved hidden width %.0f -> %.3g parameters\n", cs.Size, cs.Params)
	fmt.Fprintf(w, "  per-step: %.1f TFLOPs, %.2f TB algorithmic, %.2f TB cache-aware\n\n",
		cs.StepFLOPs/1e12, cs.AlgBytes/1e12, cs.CacheAwareBytes/1e12)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Optimization Stage\tAccels\tBatch\tMem/Accel (GB)\tDays/epoch\tAlg FLOP util\tFits %.0fGB\n",
		acc.MemCapacity/1e9)
	for _, st := range cs.Stages {
		mem := ""
		for i, v := range st.MemPerAccelGB {
			if i > 0 {
				mem += ", "
			}
			mem += fmt.Sprintf("%.0f", v)
		}
		if len(st.MemPerAccelGB) > 1 {
			mem = "{" + mem + "}"
		}
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%s\t%.1f\t%.1f%%\t%v\n",
			st.Name, st.Accels, st.GlobalBatch, mem, st.DaysPerEpoch,
			100*st.Utilization, st.Fits)
	}
	tw.Flush()
}

// PrintAcceleratorCatalog lists every catalog preset with its Roofline
// numbers, pricing, and accepted aliases — the -list-accels output shared
// by every accelerator-taking CLI, so users can discover valid names
// instead of guessing.
func PrintAcceleratorCatalog(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Name\tPeak TFLOP/s\tMem GB\tBW GB/s\tLink GB/s\t$/hr\tTDP W\tAliases")
	for _, a := range hw.Catalog() {
		cost := "unpriced"
		if a.Priced() {
			cost = fmt.Sprintf("%.2f", a.CostPerHourUSD)
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.0f\t%.0f\t%.0f\t%s\t%.0f\t%s\n",
			a.Name, a.PeakFLOPS/1e12, a.MemCapacity/1e9, a.MemBandwidth/1e9,
			a.InterconnectBW/1e9, cost, a.TDPWatts,
			strings.Join(hw.AliasesFor(a.Name), ", "))
	}
	tw.Flush()
}

// PrintRequirements renders one characterization report.
func PrintRequirements(w io.Writer, r Requirements) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Model\t%s\n", r.Name)
	fmt.Fprintf(tw, "Size hyperparameter\t%.1f\n", r.Size)
	fmt.Fprintf(tw, "Subbatch\t%g\n", r.Batch)
	fmt.Fprintf(tw, "Parameters\t%.4g\n", r.Params)
	fmt.Fprintf(tw, "Algorithmic FLOPs/step\t%.4g\n", r.FLOPsPerStep)
	fmt.Fprintf(tw, "Algorithmic FLOPs/step/sample\t%.4g\n", r.FLOPsPerSample)
	fmt.Fprintf(tw, "FLOPs per parameter per sample\t%.1f\n", r.FLOPsPerSample/r.Params)
	fmt.Fprintf(tw, "Algorithmic bytes/step\t%.4g\n", r.BytesPerStep)
	fmt.Fprintf(tw, "Operational intensity\t%.2f FLOP/B\n", r.Intensity)
	fmt.Fprintf(tw, "Minimal memory footprint\t%.3f GB (%.2f B/param)\n",
		r.FootprintBytes/1e9, r.FootprintBytes/r.Params)
	fmt.Fprintf(tw, "  persistent (weights+opt)\t%.3f GB\n", r.PersistentBytes/1e9)
	fmt.Fprintf(tw, "Backward/forward FLOP ratio\t%.2f\n", r.BwdFLOPs/r.FwdFLOPs)
	tw.Flush()
}

// WriteSweepCSV emits Figures 7–9 series as CSV: one row per point with
// params, per-sample GFLOPs, per-step GB, and operational intensity.
func WriteSweepCSV(w io.Writer, series []SweepSeries) {
	fmt.Fprintln(w, "domain,params,gflops_per_step_per_sample,gb_accessed_per_step,op_intensity")
	for _, s := range series {
		for _, p := range s.Points {
			fmt.Fprintf(w, "%s,%.6g,%.6g,%.6g,%.6g\n",
				fmtDomain(s.Domain), p.Params, p.FLOPsPerSample/1e9,
				p.BytesPerStep/1e9, p.Intensity)
		}
	}
}

// WriteFootprintCSV emits Figure 10 as CSV, including the simulated
// allocator view.
func WriteFootprintCSV(w io.Writer, series []FootprintSeries) {
	fmt.Fprintln(w, "domain,params,footprint_gb,allocator_gb,swapping")
	for _, s := range series {
		for _, p := range s.Points {
			fmt.Fprintf(w, "%s,%.6g,%.6g,%.6g,%v\n",
				fmtDomain(s.Domain), p.Params, p.FootprintBytes/1e9,
				p.AllocatorReport.DeviceBytes/1e9, p.AllocatorReport.Swapping)
		}
	}
}

// WriteFigure11CSV emits the subbatch sweep as CSV. The chosen-policy
// comment lines are emitted in sorted order so the output is
// deterministic (map iteration order is not).
func WriteFigure11CSV(w io.Writer, data *Figure11Data) {
	fmt.Fprintf(w, "# effective ridge point: %.2f FLOP/B\n", data.RidgePoint)
	names := make([]string, 0, len(data.Chosen))
	for name := range data.Chosen {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pt := data.Chosen[name]
		fmt.Fprintf(w, "# chosen[%s]: subbatch=%.0f intensity=%.2f time_per_sample=%.4g\n",
			name, pt.Subbatch, pt.Intensity, pt.TimePerSample)
	}
	fmt.Fprintln(w, "subbatch,op_intensity,step_time_s,time_per_sample_s,utilization")
	for _, p := range data.Points {
		fmt.Fprintf(w, "%.0f,%.6g,%.6g,%.6g,%.6g\n",
			p.Subbatch, p.Intensity, p.StepTime, p.TimePerSample, p.Utilization)
	}
}

// WriteFigure12CSV emits the data-parallel scaling sweep as CSV.
func WriteFigure12CSV(w io.Writer, data *Figure12Data) {
	fmt.Fprintln(w, "workers,global_batch,step_time_s,comm_time_s,epoch_days,utilization")
	for _, p := range data.Points {
		fmt.Fprintf(w, "%d,%.0f,%.6g,%.6g,%.6g,%.6g\n",
			p.Workers, p.GlobalBatch, p.StepTime, p.CommTime, p.EpochDays, p.Utilization)
	}
}

// WriteFigure6CSV emits the learning-curve sketch as CSV.
func WriteFigure6CSV(w io.Writer, pts []LearningCurvePoint) {
	fmt.Fprintln(w, "data_samples,error,region")
	for _, p := range pts {
		fmt.Fprintf(w, "%.6g,%.6g,%s\n", p.DataSamples, p.Error, p.Region)
	}
}
