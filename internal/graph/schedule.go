package graph

import (
	"fmt"
	"math"
	"sort"
)

// SchedulePolicy selects the traversal heuristic used when estimating the
// minimal memory footprint. The true minimum over all topological orders is
// NP-hard; the paper's artifact likewise uses a single-traversal estimate.
type SchedulePolicy int

// Scheduling policies.
const (
	// PolicyFIFO executes ready nodes in insertion order, mimicking a
	// straightforward framework executor.
	PolicyFIFO SchedulePolicy = iota
	// PolicyMemGreedy executes the ready node with the smallest net live-set
	// growth (allocation minus frees), a strong footprint-minimizing
	// heuristic for training graphs.
	PolicyMemGreedy
)

func (p SchedulePolicy) String() string {
	switch p {
	case PolicyFIFO:
		return "fifo"
	case PolicyMemGreedy:
		return "mem-greedy"
	}
	return "unknown"
}

// ScheduleResult reports the footprint of one simulated traversal.
type ScheduleResult struct {
	// PeakBytes is the maximum concurrent allocation: persistent tensors
	// plus the peak transient live set. This is the paper's "minimal memory
	// footprint" estimate.
	PeakBytes float64
	// PersistentBytes covers Param and State tensors (weights + optimizer
	// slots), resident for the entire step.
	PersistentBytes float64
	// PeakTransientBytes is the activation/gradient peak alone.
	PeakTransientBytes float64
	// Order is the traversal that produced the estimate, as node ids
	// (indexes into Graph.Nodes).
	Order []int32
}

// Footprint simulates a topological traversal under env and returns the
// memory footprint estimate for one training step. Hot paths that sweep many
// evaluation points should compile the graph once and use
// Compiled.FootprintFromBatch, which replaces the per-tensor tree walk below
// with precompiled programs, reads each tensor's size from the few distinct
// sizes of its graph, and reuses the flattened wiring and simulation state.
func (g *Graph) Footprint(env map[string]float64, policy SchedulePolicy) (ScheduleResult, error) {
	// Pre-evaluate tensor byte sizes; here every tensor is its own size
	// class.
	bytes := make([]float64, len(g.tensors))
	for _, t := range g.tensors {
		v, err := t.Bytes().Eval(env)
		if err != nil {
			return ScheduleResult{}, fmt.Errorf("tensor %s: %w", t.Name, err)
		}
		bytes[t.id] = v
	}
	var sim footprintSim
	return sim.run(g.flatten(nil), bytes, policy)
}

// wiring is the graph topology the footprint simulator walks, flattened
// into int32 CSR arrays: each relation is an offset array plus a packed id
// array, item i's ids being ids[off[i]:off[i+1]]. Persistent (Param/State)
// tensors have no producer and are never allocated or freed, so their
// edges are dropped; only their size classes remain, for the resident
// total. Repeated inputs keep one entry per edge, which is what the
// consumer counts and in-degrees count.
type wiring struct {
	g                *Graph
	inOff, inIDs     []int32 // node → transient input tensor ids
	outOff, outIDs   []int32 // node → output tensor ids
	consOff, consIDs []int32 // tensor → consumer node ids
	indeg            []int32 // node → input edges from a produced tensor
	persistent       []int32 // size class of each Param and State tensor, in id order
	inputs           []int32 // size class of each Input tensor, in id order
	// init holds every tensor's record as a simulation starts: its size
	// class, all consumer edges pending, and only graph inputs live.
	init []tensorRec
}

// tensorRec is one tensor's simulation state in 8 bytes: its size class
// (an index into the distinct sizes of the simulated row) and a state word
// of twice its unexecuted consumer edges plus a live bit. So a live tensor
// with one consumer edge left reads liveLastEdge, and a live tensor whose
// last consumer has run reads liveNoEdge.
type tensorRec struct {
	class int32
	state int32
}

const (
	liveNoEdge   = 1
	liveLastEdge = 3
)

// flatten builds the simulator's wiring in O(nodes + edges). classes maps
// each tensor id to its size class; nil gives every tensor a class of its
// own, its id.
func (g *Graph) flatten(classes []int32) *wiring {
	nn, nt := len(g.nodes), len(g.tensors)
	var nin, nout int
	for _, n := range g.nodes {
		for _, t := range n.Inputs {
			if !t.Persistent() {
				nin++
			}
		}
		nout += len(n.Outputs)
	}
	w := &wiring{
		g:       g,
		inOff:   make([]int32, nn+1),
		inIDs:   make([]int32, 0, nin),
		outOff:  make([]int32, nn+1),
		outIDs:  make([]int32, 0, nout),
		consOff: make([]int32, nt+1),
		consIDs: make([]int32, 0, nin),
		indeg:   make([]int32, nn),
		init:    make([]tensorRec, nt),
	}
	for i, n := range g.nodes {
		for _, t := range n.Inputs {
			if t.Persistent() {
				continue
			}
			w.inIDs = append(w.inIDs, int32(t.id))
			if t.Producer != nil {
				w.indeg[i]++
			}
		}
		for _, t := range n.Outputs {
			w.outIDs = append(w.outIDs, int32(t.id))
		}
		w.inOff[i+1] = int32(len(w.inIDs))
		w.outOff[i+1] = int32(len(w.outIDs))
	}
	for i, t := range g.tensors {
		class := int32(i)
		if classes != nil {
			class = classes[i]
		}
		rec := tensorRec{class: class}
		if t.Persistent() {
			w.persistent = append(w.persistent, class)
		} else {
			// Graph inputs are staged in before the step starts.
			if t.Kind == Input {
				w.inputs = append(w.inputs, class)
				rec.state = 1
			}
			for _, c := range t.Consumers {
				w.consIDs = append(w.consIDs, int32(c.id))
			}
			rec.state += 2 * int32(len(t.Consumers))
		}
		w.init[i] = rec
		w.consOff[i+1] = int32(len(w.consIDs))
	}
	return w
}

// validSize reports whether v is a usable tensor size: finite and not
// negative.
func validSize(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }

// checkSizes fails if a tensor's size is negative or not finite, naming
// the first such tensor in id order. Only the distinct sizes are scanned
// unless one is bad.
func (w *wiring) checkSizes(sizes []float64) error {
	for _, v := range sizes {
		if validSize(v) {
			continue
		}
		for i, r := range w.init {
			if v := sizes[r.class]; !validSize(v) {
				return fmt.Errorf("graph: tensor %s: size %g bytes is negative or not finite",
					w.g.tensors[i].Name, v)
			}
		}
		break
	}
	return nil
}

// footprintSim holds every buffer one traversal simulation needs. Reusing
// one across calls keeps repeated simulation allocation-free. A graph
// needs 8 bytes per tensor and 12 per node, plus the ready heap: about
// 1 MB for the 47,745-node, 54,337-tensor speech graph.
type footprintSim struct {
	tensors []tensorRec // by tensor id, copied from the wiring's init
	indeg   []int32     // by node: input edges whose producer has not run
	order   []int32
	ready   readySet
}

// reset sizes the buffers for w and loads the starting state.
func (fs *footprintSim) reset(w *wiring) {
	nt, nn := len(w.init), len(w.indeg)
	if cap(fs.tensors) < nt {
		fs.tensors = make([]tensorRec, nt)
	}
	fs.tensors = fs.tensors[:nt]
	copy(fs.tensors, w.init)
	if cap(fs.indeg) < nn {
		fs.indeg = make([]int32, nn)
	}
	fs.indeg = fs.indeg[:nn]
	copy(fs.indeg, w.indeg)
	if cap(fs.order) < nn {
		fs.order = make([]int32, 0, nn)
	}
	fs.order = fs.order[:0]
	fs.ready.reset(nn)
}

// run simulates one traversal of w, where a tensor of size class k has
// sizes[k] bytes. It is the one simulator behind Graph.Footprint and every
// Compiled footprint path. The returned Order aliases fs and is valid
// until fs is reused.
//
// Sizes must be finite and non-negative: a negative size would raise a
// ready node's key in the decrease-key step below and break the heap
// invariant, so such a binding is an error naming the tensor.
//
// The ready set (readySet) orders nodes by the policy's priority (net
// live-set delta for mem-greedy, insertion order for FIFO), with
// decrease-key maintenance instead of a full rescan per pick. A ready
// node's delta can only change when one of its input tensors drops to a
// single remaining consumer — its own inputs cannot be freed and its
// outputs cannot become live while it waits — so adjusting exactly that
// consumer keeps every key equal to a fresh recomputation.
func (fs *footprintSim) run(w *wiring, sizes []float64, policy SchedulePolicy) (ScheduleResult, error) {
	if err := w.checkSizes(sizes); err != nil {
		return ScheduleResult{}, err
	}
	fs.reset(w)

	var persistent float64
	for _, k := range w.persistent {
		persistent += sizes[k]
	}
	var cur float64
	for _, k := range w.inputs {
		cur += sizes[k]
	}
	peakTransient := cur
	ts, indeg := fs.tensors, fs.indeg

	greedy := policy == PolicyMemGreedy
	// keyFor orders the ready set: the net live-set change from executing
	// n under mem-greedy, n's insertion index under FIFO. Ties break toward
	// insertion order (the set compares node ids after keys): chained
	// gradient accumulations only become ready in chain order, so honoring
	// creation order lets each partial be folded into the running sum as
	// soon as it is produced. AddNode makes every output an Activation
	// that no other node produces, so no output is live before n runs.
	keyFor := func(n int32) float64 {
		if !greedy {
			return float64(n)
		}
		var d float64
		for _, t := range w.outIDs[w.outOff[n]:w.outOff[n+1]] {
			d += sizes[ts[t].class]
		}
		for _, t := range w.inIDs[w.inOff[n]:w.inOff[n+1]] {
			if ts[t].state == liveLastEdge {
				d -= sizes[ts[t].class]
			}
		}
		return d
	}

	ready := &fs.ready
	for n, d := range indeg {
		if d == 0 {
			ready.add(int32(n), keyFor(int32(n)))
		}
	}

	order := fs.order
	for {
		n := ready.next()
		if n < 0 {
			break
		}
		order = append(order, n)
		outs := w.outIDs[w.outOff[n]:w.outOff[n+1]]

		// Allocate outputs.
		for _, t := range outs {
			ts[t].state |= 1
			cur += sizes[ts[t].class]
		}
		if cur > peakTransient {
			peakTransient = cur
		}
		// Free inputs whose last consumer just ran.
		for _, t := range w.inIDs[w.inOff[n]:w.inOff[n+1]] {
			r := &ts[t]
			r.state -= 2
			switch r.state {
			case liveNoEdge:
				r.state = 0
				cur -= sizes[r.class]
			case liveLastEdge:
				if !greedy {
					break
				}
				// Exactly one unexecuted consumer edge remains; freeing t
				// now counts toward that consumer's net delta. If it is not
				// ready yet, its key is computed fresh when it is added.
				for _, c := range w.consIDs[w.consOff[t]:w.consOff[t+1]] {
					if ready.contains(c) {
						ready.decrease(c, sizes[r.class])
						break
					}
				}
			}
		}
		// Outputs nobody consumes (e.g. the reported loss) are freed at step
		// end; they stay in the live set until then.
		for _, t := range outs {
			for _, c := range w.consIDs[w.consOff[t]:w.consOff[t+1]] {
				indeg[c]--
				if indeg[c] == 0 {
					ready.add(c, keyFor(c))
				}
			}
		}
	}
	fs.order = order
	if len(order) != len(indeg) {
		return ScheduleResult{}, fmt.Errorf("graph: cycle detected during scheduling")
	}
	return ScheduleResult{
		PeakBytes:          persistent + peakTransient,
		PersistentBytes:    persistent,
		PeakTransientBytes: peakTransient,
		Order:              order,
	}, nil
}

// readyEntry is one ready node with its key, stored inline so heap
// comparisons read no side table.
type readyEntry struct {
	key float64
	id  int32
}

// before orders entries by (key, id). The id tie-break keeps traversal
// deterministic and insertion-ordered.
func (e readyEntry) before(o readyEntry) bool {
	if e.key != o.key {
		return e.key < o.key
	}
	return e.id < o.id
}

// inSlot marks, in readySet.pos, the node held in the slot.
const inSlot = -2

// readySet holds the ready nodes: an indexed min-heap with a one-entry
// slot in front of it. A node made ready takes the slot if it orders
// before the slot's node, which moves into the heap; otherwise it goes
// into the heap itself. A pick compares the slot with the heap top, so
// nodes come out in the order the heap alone would give; but the node a
// step makes ready is most often the next one picked, and from the slot
// it skips the heap's push and pop.
type readySet struct {
	slot readyEntry   // id -1 when empty
	heap []readyEntry // 4-ary min-heap by before
	pos  []int32      // by node id: index into heap, inSlot, or -1 when absent
}

// reset empties the set for a graph of n nodes, reusing prior storage.
// The heap grows on demand: the ready set of a training graph is a small
// fraction of its nodes.
func (r *readySet) reset(n int) {
	if cap(r.pos) < n {
		r.pos = make([]int32, n)
	}
	r.pos = r.pos[:n]
	for i := range r.pos {
		r.pos[i] = -1
	}
	r.heap = r.heap[:0]
	r.slot.id = -1
}

func (r *readySet) contains(id int32) bool { return r.pos[id] != -1 }

// add makes node id ready with the given key. The better of it and the
// slot's node takes the slot; the other goes into the heap.
func (r *readySet) add(id int32, key float64) {
	e := readyEntry{key: key, id: id}
	if r.slot.id >= 0 {
		if !e.before(r.slot) {
			r.push(e)
			return
		}
		r.push(r.slot)
	}
	r.slot = e
	r.pos[id] = inSlot
}

// next removes and returns the ready node that orders first, or -1 when
// none is ready.
func (r *readySet) next() int32 {
	if r.slot.id >= 0 && (len(r.heap) == 0 || r.slot.before(r.heap[0])) {
		id := r.slot.id
		r.slot.id = -1
		r.pos[id] = -1
		return id
	}
	if len(r.heap) == 0 {
		return -1
	}
	top := r.heap[0].id
	last := len(r.heap) - 1
	e := r.heap[last]
	r.heap = r.heap[:last]
	r.pos[top] = -1
	if last > 0 {
		r.siftDown(0, e)
	}
	return top
}

// decrease lowers id's key by by, which must not be negative.
func (r *readySet) decrease(id int32, by float64) {
	i := r.pos[id]
	if i == inSlot {
		r.slot.key -= by
		return
	}
	r.heap[i].key -= by
	r.siftUp(int(i), r.heap[i])
}

func (r *readySet) push(e readyEntry) {
	r.heap = append(r.heap, e)
	r.siftUp(len(r.heap)-1, e)
}

// heapArity is the heap's fan-out. Four children per entry halve the depth
// of a binary heap for a few more comparisons per level, which the ready
// sets here (hundreds of entries) repay.
const heapArity = 4

// siftUp places e, now at i, moving parents down while e orders before
// them.
func (r *readySet) siftUp(i int, e readyEntry) {
	for i > 0 {
		parent := (i - 1) / heapArity
		p := r.heap[parent]
		if !e.before(p) {
			break
		}
		r.heap[i] = p
		r.pos[p.id] = int32(i)
		i = parent
	}
	r.heap[i] = e
	r.pos[e.id] = int32(i)
}

// siftDown places e in the hole at i, moving the first-ordered child up
// while it orders before e.
func (r *readySet) siftDown(i int, e readyEntry) {
	n := len(r.heap)
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		min, minE := first, r.heap[first]
		for c := first + 1; c < first+heapArity && c < n; c++ {
			if r.heap[c].before(minE) {
				min, minE = c, r.heap[c]
			}
		}
		if !minE.before(e) {
			break
		}
		r.heap[i] = minE
		r.pos[minE.id] = int32(i)
		i = min
	}
	r.heap[i] = e
	r.pos[e.id] = int32(i)
}

// AllocatorSim models a framework allocator with a fixed device capacity, as
// observed in the paper's Figure 10: once the footprint exceeds the usable
// capacity, the framework swaps tensors to host memory and stops counting
// them, so the reported device footprint plateaus at the cap.
type AllocatorSim struct {
	// CapacityBytes is the device memory size.
	CapacityBytes float64
	// UsableFraction is the fraction of capacity the allocator may use
	// (TensorFlow defaults to ~0.8).
	UsableFraction float64
}

// AllocatorReport describes the simulated allocator outcome.
type AllocatorReport struct {
	// DeviceBytes is the footprint the allocator reports on-device.
	DeviceBytes float64 `json:"device_bytes"`
	// SwappedBytes spilled to host memory.
	SwappedBytes float64 `json:"swapped_bytes"`
	// Swapping reports whether any spill occurred.
	Swapping bool `json:"swapping"`
}

// Apply converts a true footprint into the allocator-visible view.
func (a AllocatorSim) Apply(footprintBytes float64) AllocatorReport {
	limit := a.CapacityBytes * a.UsableFraction
	if footprintBytes <= limit {
		return AllocatorReport{DeviceBytes: footprintBytes}
	}
	return AllocatorReport{
		DeviceBytes:  limit,
		SwappedBytes: footprintBytes - limit,
		Swapping:     true,
	}
}

// GroupFootprints estimates per-group resident bytes for layer-wise
// parallelism planning: parameters (plus optimizer state and weight
// gradients, which the paper's 12 B/param accounting keeps resident) are
// attributed to their group, and peak transient bytes are attributed to the
// group active at the peak.
func (g *Graph) GroupFootprints(env map[string]float64, policy SchedulePolicy) (map[string]float64, error) {
	res, err := g.Footprint(env, policy)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, t := range g.tensors {
		if t.Persistent() {
			v, err := t.Bytes().Eval(env)
			if err != nil {
				return nil, err
			}
			out[t.Group] += v
		}
	}
	// Attribute the transient peak proportionally to per-group transient
	// traffic, a first-order split adequate for planning.
	groupTransient := make(map[string]float64)
	var totalTransient float64
	for _, t := range g.tensors {
		if !t.Persistent() {
			v, err := t.Bytes().Eval(env)
			if err != nil {
				return nil, err
			}
			groupTransient[t.Group] += v
			totalTransient += v
		}
	}
	if totalTransient > 0 {
		for k, v := range groupTransient {
			out[k] += res.PeakTransientBytes * v / totalTransient
		}
	}
	return out, nil
}

// SortedGroupNames returns map keys in sorted order, for deterministic
// reporting.
func SortedGroupNames(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
