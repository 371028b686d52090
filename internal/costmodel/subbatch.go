package costmodel

import "catamount/internal/hw"

// SubbatchSweep prices a step across subbatch sizes (Figure 11's x axis)
// with a pluggable step-time backend: row r of c is the step's cost vector
// at subbatches[r]. With the GraphRoofline backend it reproduces
// hw.SubbatchSweep exactly; hw.ChooseSubbatch applies the §5.2.1 policies
// to the result either way. The sweep evaluates no footprint, so
// FootprintBytes reads 0.
func SubbatchSweep(c *CostsBatch, subbatches []float64, acc hw.Accelerator, m Model) []hw.SubbatchPoint {
	steps := m.StepTimesBatch(acc, c, nil, nil)
	out := make([]hw.SubbatchPoint, len(subbatches))
	for r, b := range subbatches {
		f, by, t := c.FLOPs[r], c.Bytes[r], steps[r]
		intensity := 0.0
		if by > 0 {
			intensity = f / by
		}
		out[r] = hw.SubbatchPoint{
			Subbatch:      b,
			FLOPs:         f,
			Bytes:         by,
			Intensity:     intensity,
			StepTime:      t,
			TimePerSample: t / b,
			Utilization:   acc.Utilization(f, t),
		}
	}
	return out
}
