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
	// Order is the traversal that produced the estimate.
	Order []*Node
}

// Footprint simulates a topological traversal under env and returns the
// memory footprint estimate for one training step. Hot paths that sweep many
// evaluation points should compile the graph once and use
// Compiled.FootprintInto, which replaces the per-tensor tree walk below with
// precompiled programs and reuses the flattened wiring and simulation state.
func (g *Graph) Footprint(env map[string]float64, policy SchedulePolicy) (ScheduleResult, error) {
	// Pre-evaluate tensor byte sizes.
	bytes := make([]float64, len(g.tensors))
	for _, t := range g.tensors {
		v, err := t.Bytes().Eval(env)
		if err != nil {
			return ScheduleResult{}, fmt.Errorf("tensor %s: %w", t.Name, err)
		}
		bytes[t.id] = v
	}
	var sim footprintSim
	return sim.run(g.flatten(), bytes, policy)
}

// wiring is the graph topology the footprint simulator walks, flattened
// into int32 CSR arrays: each relation is an offset array plus a packed id
// array, item i's ids being ids[off[i]:off[i+1]]. Persistent (Param/State)
// tensors have no producer and are never allocated or freed, so their
// edges are dropped; only their ids remain, for the resident total.
// Repeated inputs keep one entry per edge, which is what the consumer
// counts and in-degrees count.
type wiring struct {
	g                *Graph
	inOff, inIDs     []int32 // node → transient input tensor ids
	outOff, outIDs   []int32 // node → output tensor ids
	consOff, consIDs []int32 // tensor → consumer node ids
	indeg            []int32 // node → input edges from a produced tensor
	persistent       []int32 // Param and State tensor ids, ascending
	inputs           []int32 // Input tensor ids, ascending
}

// flatten builds the simulator's wiring in O(nodes + edges).
func (g *Graph) flatten() *wiring {
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
		if t.Persistent() {
			w.persistent = append(w.persistent, int32(i))
		} else {
			if t.Kind == Input {
				w.inputs = append(w.inputs, int32(i))
			}
			for _, c := range t.Consumers {
				w.consIDs = append(w.consIDs, int32(c.id))
			}
		}
		w.consOff[i+1] = int32(len(w.consIDs))
	}
	return w
}

// footprintSim holds every buffer one traversal simulation needs. Reusing
// one across calls keeps repeated simulation allocation-free; a 47k-node
// speech graph needs about 1 MB of counters, flags, heap state and order
// storage.
type footprintSim struct {
	remaining []int32 // by tensor: consumer edges not yet executed
	live      []bool  // by tensor
	indeg     []int32 // by node: input edges whose producer has not run
	order     []*Node
	heap      readyHeap
}

// reset sizes the buffers for a graph with nt tensors and nn nodes and
// clears the state the simulation reads before writing.
func (fs *footprintSim) reset(nt, nn int) {
	if cap(fs.remaining) < nt {
		fs.remaining = make([]int32, nt)
		fs.live = make([]bool, nt)
	}
	fs.remaining = fs.remaining[:nt]
	fs.live = fs.live[:nt]
	clear(fs.live)
	if cap(fs.indeg) < nn {
		fs.indeg = make([]int32, nn)
	}
	fs.indeg = fs.indeg[:nn]
	if cap(fs.order) < nn {
		fs.order = make([]*Node, 0, nn)
	}
	fs.order = fs.order[:0]
	fs.heap.reset(nn)
}

// run simulates one traversal of w under the per-tensor byte sizes bytes
// (indexed by tensor id). It is the one simulator behind Graph.Footprint
// and every Compiled footprint path. The returned Order aliases fs and is
// valid until fs is reused.
//
// Sizes must be finite and non-negative: a negative size would raise a
// ready node's key in the decrease-key step below and break the heap
// invariant, so such a binding is an error naming the tensor.
//
// The ready set is an indexed min-heap keyed by the policy's priority
// (net live-set delta for mem-greedy, insertion order for FIFO), with
// decrease-key maintenance instead of a full rescan per pick. A ready
// node's delta can only change when one of its input tensors drops to a
// single remaining consumer — its own inputs cannot be freed and its
// outputs cannot become live while it waits — so adjusting exactly that
// consumer keeps every key equal to a fresh recomputation.
func (fs *footprintSim) run(w *wiring, bytes []float64, policy SchedulePolicy) (ScheduleResult, error) {
	for i, b := range bytes {
		if !(b >= 0 && b <= math.MaxFloat64) {
			return ScheduleResult{}, fmt.Errorf("graph: tensor %s: size %g bytes is negative or not finite",
				w.g.tensors[i].Name, b)
		}
	}
	fs.reset(len(bytes), len(w.indeg))

	var persistent float64
	for _, t := range w.persistent {
		persistent += bytes[t]
	}
	remaining := fs.remaining
	for t := range remaining {
		remaining[t] = w.consOff[t+1] - w.consOff[t]
	}
	// Transient live set: graph inputs are staged in before the step starts.
	live := fs.live
	var cur float64
	for _, t := range w.inputs {
		live[t] = true
		cur += bytes[t]
	}
	peakTransient := cur
	indeg := fs.indeg
	copy(indeg, w.indeg)

	greedy := policy == PolicyMemGreedy
	// keyFor orders the ready heap: the net live-set change from executing
	// n under mem-greedy, n's insertion index under FIFO. Ties break toward
	// insertion order (the heap compares node ids after keys): chained
	// gradient accumulations only become ready in chain order, so honoring
	// creation order lets each partial be folded into the running sum as
	// soon as it is produced.
	keyFor := func(n int32) float64 {
		if !greedy {
			return float64(n)
		}
		var d float64
		for _, t := range w.outIDs[w.outOff[n]:w.outOff[n+1]] {
			if !live[t] {
				d += bytes[t]
			}
		}
		for _, t := range w.inIDs[w.inOff[n]:w.inOff[n+1]] {
			if live[t] && remaining[t] == 1 {
				d -= bytes[t]
			}
		}
		return d
	}

	ready := &fs.heap
	for n, d := range indeg {
		if d == 0 {
			ready.push(int32(n), keyFor(int32(n)))
		}
	}

	nodes := w.g.nodes
	order := fs.order
	for ready.len() > 0 {
		n := ready.pop()
		order = append(order, nodes[n])
		outs := w.outIDs[w.outOff[n]:w.outOff[n+1]]

		// Allocate outputs.
		for _, t := range outs {
			if !live[t] {
				live[t] = true
				cur += bytes[t]
			}
		}
		if cur > peakTransient {
			peakTransient = cur
		}
		// Free inputs whose last consumer just ran.
		for _, t := range w.inIDs[w.inOff[n]:w.inOff[n+1]] {
			remaining[t]--
			if !live[t] {
				continue
			}
			switch remaining[t] {
			case 0:
				live[t] = false
				cur -= bytes[t]
			case 1:
				if !greedy {
					break
				}
				// Exactly one unexecuted consumer edge remains; freeing t
				// now counts toward that consumer's net delta. If it is not
				// ready yet, its key is computed fresh when it is pushed.
				for _, c := range w.consIDs[w.consOff[t]:w.consOff[t+1]] {
					if ready.contains(c) {
						ready.decrease(c, bytes[t])
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
					ready.push(c, keyFor(c))
				}
			}
		}
	}
	fs.order = order
	if len(order) != len(nodes) {
		return ScheduleResult{}, fmt.Errorf("graph: cycle detected during scheduling")
	}
	return ScheduleResult{
		PeakBytes:          persistent + peakTransient,
		PersistentBytes:    persistent,
		PeakTransientBytes: peakTransient,
		Order:              order,
	}, nil
}

// readyEntry is one ready node with its heap key, stored inline so heap
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

// readyHeap is an indexed binary min-heap of ready nodes.
type readyHeap struct {
	arr []readyEntry
	pos []int32 // by node id: index into arr, -1 when absent
}

// reset prepares the heap for a graph of n nodes, reusing prior storage.
// The entry array grows on demand: the ready set of a training graph is a
// small fraction of its nodes.
func (h *readyHeap) reset(n int) {
	if cap(h.pos) < n {
		h.pos = make([]int32, n)
	}
	h.pos = h.pos[:n]
	h.arr = h.arr[:0]
	for i := range h.pos {
		h.pos[i] = -1
	}
}

func (h *readyHeap) len() int               { return len(h.arr) }
func (h *readyHeap) contains(id int32) bool { return h.pos[id] >= 0 }

func (h *readyHeap) push(id int32, key float64) {
	h.arr = append(h.arr, readyEntry{key: key, id: id})
	h.siftUp(len(h.arr) - 1)
}

func (h *readyHeap) pop() int32 {
	top := h.arr[0].id
	last := len(h.arr) - 1
	e := h.arr[last]
	h.arr = h.arr[:last]
	h.pos[top] = -1
	if last > 0 {
		h.siftDown(0, e)
	}
	return top
}

// decrease lowers id's key by by, which must not be negative.
func (h *readyHeap) decrease(id int32, by float64) {
	i := h.pos[id]
	h.arr[i].key -= by
	h.siftUp(int(i))
}

// siftUp moves the entry at i toward the root until its parent orders
// before it.
func (h *readyHeap) siftUp(i int) {
	e := h.arr[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h.arr[parent]) {
			break
		}
		h.arr[i] = h.arr[parent]
		h.pos[h.arr[i].id] = int32(i)
		i = parent
	}
	h.arr[i] = e
	h.pos[e.id] = int32(i)
}

// siftDown places e in the hole at i, moving the smaller child up while it
// orders before e.
func (h *readyHeap) siftDown(i int, e readyEntry) {
	n := len(h.arr)
	for {
		min, minE := i, e
		if left := 2*i + 1; left < n && h.arr[left].before(minE) {
			min, minE = left, h.arr[left]
		}
		if right := 2*i + 2; right < n && h.arr[right].before(minE) {
			min, minE = right, h.arr[right]
		}
		if min == i {
			break
		}
		h.arr[i] = minE
		h.pos[minE.id] = int32(i)
		i = min
	}
	h.arr[i] = e
	h.pos[e.id] = int32(i)
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
