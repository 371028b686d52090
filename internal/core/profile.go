package core

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"catamount/internal/graph"
	"catamount/internal/symbolic"
)

// OpKindProfile aggregates one op kind across the graph — the TFprof-style
// per-op view the paper's methodology is built on (§4.1).
type OpKindProfile struct {
	Kind       string  `json:"kind"`
	Count      int     `json:"count"`
	FLOPs      float64 `json:"flops"`
	Bytes      float64 `json:"bytes"`
	FLOPsShare float64 `json:"flops_share"`
	BytesShare float64 `json:"bytes_share"`
}

// GroupProfile aggregates one logical layer group.
type GroupProfile struct {
	Group      string  `json:"group"`
	FLOPs      float64 `json:"flops"`
	Bytes      float64 `json:"bytes"`
	ParamBytes float64 `json:"param_bytes"`
	FLOPsShare float64 `json:"flops_share"`
}

// Profile is a full per-op-kind and per-group breakdown of a training step.
type Profile struct {
	// ByKind is sorted by descending FLOPs.
	ByKind []OpKindProfile `json:"by_kind"`
	// ByGroup is sorted by group name.
	ByGroup []GroupProfile `json:"by_group"`
	// TotalFLOPs / TotalBytes are the step totals.
	TotalFLOPs float64 `json:"total_flops"`
	TotalBytes float64 `json:"total_bytes"`
	// IOBytes is the algorithmic IO staged into the step.
	IOBytes float64 `json:"io_bytes"`
}

// ProfileGraph computes the breakdown under the given bindings. The graph is
// compiled first, so arbitrary (including checkpoint-loaded) graphs profile
// through the same fast path as the domain models.
func ProfileGraph(g *graph.Graph, env symbolic.Env) (*Profile, error) {
	c := graph.Compile(g)
	slots := c.NewSlots()
	if err := c.Bind(slots, env); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return profileCompiled(c, slots)
}

// profileCompiled aggregates a compiled graph's per-node costs under one slot
// binding.
func profileCompiled(c *graph.Compiled, slots []float64) (*Profile, error) {
	g := c.Graph
	kind := make(map[string]*OpKindProfile)
	group := make(map[string]*GroupProfile)
	p := &Profile{}
	costs := c.CostValues(slots, nil)
	flopIx, byteIx := c.CostIndexes()
	for i, n := range g.Nodes() {
		f := costs[flopIx[i]]
		by := costs[byteIx[i]]
		k := n.Op.Kind()
		kp, ok := kind[k]
		if !ok {
			kp = &OpKindProfile{Kind: k}
			kind[k] = kp
		}
		kp.Count++
		kp.FLOPs += f
		kp.Bytes += by

		gp, ok := group[n.Group]
		if !ok {
			gp = &GroupProfile{Group: n.Group}
			group[n.Group] = gp
		}
		gp.FLOPs += f
		gp.Bytes += by

		p.TotalFLOPs += f
		p.TotalBytes += by
	}
	sizes := c.TensorValues(slots, nil)
	for i, t := range g.Tensors() {
		if t.Kind != graph.Param {
			continue
		}
		by := sizes[c.TensorIndex(i)]
		if gp, ok := group[t.Group]; ok {
			gp.ParamBytes += by
		} else {
			group[t.Group] = &GroupProfile{Group: t.Group, ParamBytes: by}
		}
	}
	p.IOBytes = c.IO.Eval(slots)

	for _, kp := range kind {
		if p.TotalFLOPs > 0 {
			kp.FLOPsShare = kp.FLOPs / p.TotalFLOPs
		}
		if p.TotalBytes > 0 {
			kp.BytesShare = kp.Bytes / p.TotalBytes
		}
		p.ByKind = append(p.ByKind, *kp)
	}
	sort.Slice(p.ByKind, func(i, j int) bool {
		if p.ByKind[i].FLOPs != p.ByKind[j].FLOPs {
			return p.ByKind[i].FLOPs > p.ByKind[j].FLOPs
		}
		return p.ByKind[i].Kind < p.ByKind[j].Kind
	})
	for _, gp := range group {
		if p.TotalFLOPs > 0 {
			gp.FLOPsShare = gp.FLOPs / p.TotalFLOPs
		}
		p.ByGroup = append(p.ByGroup, *gp)
	}
	sort.Slice(p.ByGroup, func(i, j int) bool { return p.ByGroup[i].Group < p.ByGroup[j].Group })
	if err := p.nonFinite(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return p, nil
}

// nonFinite names the first value of p, in JSON order, that is not finite
// (by_kind[0].flops, …, io_bytes), as NonFinite does for Requirements.
func (p *Profile) nonFinite() error {
	type field struct {
		name string
		v    float64
	}
	first := func(prefix string, fields ...field) error {
		for _, f := range fields {
			if err := NonFiniteField(prefix+f.name, f.v); err != nil {
				return err
			}
		}
		return nil
	}
	for i, k := range p.ByKind {
		if err := first(fmt.Sprintf("by_kind[%d].", i), field{"flops", k.FLOPs}, field{"bytes", k.Bytes},
			field{"flops_share", k.FLOPsShare}, field{"bytes_share", k.BytesShare}); err != nil {
			return err
		}
	}
	for i, g := range p.ByGroup {
		if err := first(fmt.Sprintf("by_group[%d].", i), field{"flops", g.FLOPs}, field{"bytes", g.Bytes},
			field{"param_bytes", g.ParamBytes}, field{"flops_share", g.FLOPsShare}); err != nil {
			return err
		}
	}
	return first("", field{"total_flops", p.TotalFLOPs}, field{"total_bytes", p.TotalBytes},
		field{"io_bytes", p.IOBytes})
}

// KindCSVHeader is the column row matching KindCSVRecord,
// newline-terminated — the machine-readable form of the per-op-kind
// breakdown (cmd/catamount -profile -format csv), styled after the sweep
// encoders.
func KindCSVHeader() string {
	return "kind,count,flops,flops_share,bytes,bytes_share\n"
}

// KindCSVRecord renders one op-kind row as CSV, newline-terminated. Op
// kinds are identifier-like, so no field needs escaping.
func KindCSVRecord(kp OpKindProfile) string {
	return fmt.Sprintf("%s,%d,%.6g,%.6g,%.6g,%.6g\n",
		kp.Kind, kp.Count, kp.FLOPs, kp.FLOPsShare, kp.Bytes, kp.BytesShare)
}

// WriteKindCSV writes the per-op-kind breakdown as CSV rows in ByKind
// (descending-FLOPs) order.
func (p *Profile) WriteKindCSV(w io.Writer) error {
	if _, err := io.WriteString(w, KindCSVHeader()); err != nil {
		return err
	}
	for _, kp := range p.ByKind {
		if _, err := io.WriteString(w, KindCSVRecord(kp)); err != nil {
			return err
		}
	}
	return nil
}

// Print renders the profile as aligned text tables.
func (p *Profile) Print(w io.Writer, topK int) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Op kind\tCount\tFLOPs\tFLOPs %\tBytes\tBytes %")
	for i, kp := range p.ByKind {
		if topK > 0 && i >= topK {
			break
		}
		fmt.Fprintf(tw, "%s\t%d\t%.4g\t%.1f%%\t%.4g\t%.1f%%\n",
			kp.Kind, kp.Count, kp.FLOPs, 100*kp.FLOPsShare, kp.Bytes, 100*kp.BytesShare)
	}
	fmt.Fprintln(tw, "\nLayer group\tFLOPs\tFLOPs %\tBytes\tParam bytes")
	for _, gp := range p.ByGroup {
		fmt.Fprintf(tw, "%s\t%.4g\t%.1f%%\t%.4g\t%.4g\n",
			gp.Group, gp.FLOPs, 100*gp.FLOPsShare, gp.Bytes, gp.ParamBytes)
	}
	fmt.Fprintf(tw, "\nTotal\t\t%.4g\t\t%.4g\t(IO: %.4g B)\n",
		p.TotalFLOPs, p.TotalBytes, p.IOBytes)
	tw.Flush()
}
