package graph

import (
	"fmt"
	"math"
	"math/bits"
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
// needs 8 bytes per tensor and 12 per node, plus the ready set's bitsets
// (a bit per node for each bucket that has held two nodes at once) and
// its overflow heap: about 1.1 MB for the 47,745-node, 54,337-tensor
// speech graph.
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
// The ready set (readySet) yields nodes by the policy's key and then by
// node id: the net live-set delta for mem-greedy, a constant for FIFO, whose
// picks are then plain insertion order. Keys are maintained by decrease-key
// instead of a full rescan per pick. A ready node's delta can only change
// when one of its input tensors drops to a single remaining consumer — its
// own inputs cannot be freed and its outputs cannot become live while it
// waits — so adjusting exactly that consumer keeps every key equal to a
// fresh recomputation. The set buckets the ready nodes by exact key, so
// the ties that fill a training graph's ready set (hundreds of nodes over
// a few distinct deltas) go to the lowest id without being ordered.
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
	// n under mem-greedy, 0 under FIFO. Ties break toward insertion order
	// (the set compares node ids after keys): chained gradient
	// accumulations only become ready in chain order, so honoring creation
	// order lets each partial be folded into the running sum as soon as it
	// is produced. AddNode makes every output an Activation that no other
	// node produces, so no output is live before n runs.
	keyFor := func(n int32) float64 {
		if !greedy {
			return 0
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

// Where a node waits, in readySet.loc: not ready, in the slot, in bucket b
// (inBucket0 - b), or at that index (>= 0) of the overflow heap.
const (
	notReady  = -1
	inSlot    = -2
	inBucket0 = -3
)

// maxBuckets caps the buckets live at once. On the domain graphs'
// sweep-like rows (8 params × 4 subbatches) a mem-greedy ready set holds
// 62–491 nodes on average on the recurrent domains, but 2.9–4.9 distinct
// keys on average and at most 14 on any domain; a key that arrives while
// every bucket is live waits in the overflow heap instead.
const maxBuckets = 16

// readySet holds the ready nodes and yields them in (key, id) order. A
// pick takes the first of three fronts:
//
//   - a one-entry slot. A node made ready takes it if it orders before the
//     slot's node, which moves into the rest of the set. The node a step
//     makes ready is most often the next one picked, and from the slot it
//     skips the rest;
//   - up to maxBuckets buckets, one per distinct key, kept in ascending key
//     order. A bucket holds its node ids in a hierarchical bitset, so its
//     front is its lowest set bit, and the ties among hundreds of ready
//     nodes cost no ordering work;
//   - an overflow heap of (key, id) entries, for keys that find every
//     bucket live. It bounds any key distribution, such as the pairwise
//     distinct sizes of an uploaded graph, at O(log n) per operation.
//
// A key may sit in a bucket and in the heap at once; the fronts are still
// each part's first (key, id), so picks are exactly the (key, id) minimum.
// Storage is O(nodes): 4 bytes of location per node, one bit per node in
// each bucket's bitset and up to 16 bytes per node of heap. It is reused
// across resets, so a warm set allocates nothing.
type readySet struct {
	slot readyEntry // id -1 when empty
	loc  []int32    // by node id: where it waits

	live  [maxBuckets]uint8 // live[:nlive]: the live buckets by ascending key
	nlive int
	used  uint32              // bit b set while bucket b is live
	key   [maxBuckets]float64 // by bucket
	size  [maxBuckets]int32   // by bucket: its node count
	low   [maxBuckets]int32   // by bucket: its lowest id
	// sets holds each bucket's ids while it has two or more; a bucket of
	// one node holds it in low alone. On the domain graphs 65–95% of
	// buckets never hold a second node, so most never touch a bitset.
	sets [maxBuckets][]uint64
	// level holds the first word of each bitset level, bottom up: level 0
	// has a bit per node id, and each level above a bit per word of the
	// one below, set while that word is nonzero, up to a single top word.
	level []int
	words int // words per bitset

	heap []readyEntry // overflow: 4-ary min-heap by before
}

// reset empties the set for a graph of n nodes, reusing prior storage.
// Bitsets are laid out for the largest graph seen and allocated on first
// use; the heap grows on demand.
func (r *readySet) reset(n int) {
	if cap(r.loc) < n {
		r.loc = make([]int32, n)
		r.shape(n)
	}
	r.loc = r.loc[:n]
	for i := range r.loc {
		r.loc[i] = notReady
	}
	// A bucket empties as its last node is picked, so after a drained run
	// no bitset holds a bit; clear any that an abandoned run left.
	for _, b := range r.live[:r.nlive] {
		clear(r.sets[b])
		r.size[b] = 0
	}
	r.nlive, r.used = 0, 0
	r.heap = r.heap[:0]
	r.slot.id = -1
}

// shape lays the bitsets out for ids below n and drops the old ones.
func (r *readySet) shape(n int) {
	r.level = r.level[:0]
	r.words = 0
	for w := max(n, 1); ; {
		w = (w + 63) / 64
		r.level = append(r.level, r.words)
		r.words += w
		if w == 1 {
			break
		}
	}
	r.sets = [maxBuckets][]uint64{}
}

func (r *readySet) contains(id int32) bool { return r.loc[id] != notReady }

// add makes node id ready with the given key. The better of it and the
// slot's node takes the slot; the other goes into the rest of the set.
func (r *readySet) add(id int32, key float64) {
	e := readyEntry{key: key, id: id}
	if r.slot.id >= 0 {
		if !e.before(r.slot) {
			r.insert(e)
			return
		}
		r.insert(r.slot)
	}
	r.slot = e
	r.loc[id] = inSlot
}

// insert files e in the bucket of its key, in a new bucket while one is
// free, or else in the overflow heap.
func (r *readySet) insert(e readyEntry) {
	i := 0
	for i < r.nlive && r.key[r.live[i]] < e.key {
		i++
	}
	var b uint8
	switch {
	case i < r.nlive && r.key[r.live[i]] == e.key:
		b = r.live[i]
	case r.nlive < maxBuckets:
		b = uint8(bits.TrailingZeros32(^r.used))
		r.used |= 1 << b
		r.key[b] = e.key
		copy(r.live[i+1:r.nlive+1], r.live[i:r.nlive])
		r.live[i] = b
		r.nlive++
	default:
		r.push(e)
		return
	}
	r.join(b, e.id)
	r.loc[e.id] = inBucket0 - int32(b)
}

// next removes and returns the ready node that orders first, or -1 when
// none is ready.
func (r *readySet) next() int32 {
	e, from := r.slot, int32(inSlot)
	if r.nlive > 0 {
		b := r.live[0]
		if k, id := r.key[b], r.low[b]; e.id < 0 || k < e.key || k == e.key && id < e.id {
			e, from = readyEntry{key: k, id: id}, inBucket0
		}
	}
	if len(r.heap) > 0 && (e.id < 0 || r.heap[0].before(e)) {
		e, from = r.heap[0], 0
	}
	switch {
	case e.id < 0:
		return -1
	case from == inSlot:
		r.slot.id = -1
	case from == inBucket0:
		if r.leave(r.live[0], e.id) {
			r.drop(0)
		}
	default:
		last := len(r.heap) - 1
		tail := r.heap[last]
		r.heap = r.heap[:last]
		if last > 0 {
			r.siftDown(0, tail)
		}
	}
	r.loc[e.id] = notReady
	return e.id
}

// decrease lowers id's key by by, which must not be negative. A node in a
// bucket moves to the bucket of its new key.
func (r *readySet) decrease(id int32, by float64) {
	switch l := r.loc[id]; {
	case l == inSlot:
		r.slot.key -= by
	case l >= 0:
		r.heap[l].key -= by
		r.siftUp(int(l), r.heap[l])
	default:
		b := uint8(inBucket0 - l)
		key := r.key[b] - by
		if r.leave(b, id) {
			i := 0
			for r.live[i] != b {
				i++
			}
			r.drop(i)
		}
		r.insert(readyEntry{key: key, id: id})
	}
}

// drop retires the live bucket at position i of live, whose bitset is
// empty.
func (r *readySet) drop(i int) {
	r.used &^= 1 << r.live[i]
	copy(r.live[i:r.nlive-1], r.live[i+1:r.nlive])
	r.nlive--
}

// join adds id to bucket b.
func (r *readySet) join(b uint8, id int32) {
	switch r.size[b] {
	case 0:
		r.low[b] = id
	case 1:
		if r.sets[b] == nil {
			r.sets[b] = make([]uint64, r.words)
		}
		r.set(b, r.low[b])
		fallthrough
	default:
		r.set(b, id)
		if id < r.low[b] {
			r.low[b] = id
		}
	}
	r.size[b]++
}

// leave removes id from bucket b and reports whether b is now empty.
func (r *readySet) leave(b uint8, id int32) bool {
	r.size[b]--
	switch r.size[b] {
	case 0:
		return true
	case 1:
		r.unset(b, id)
		r.unset(b, r.low[b])
	default:
		r.unset(b, id)
	}
	return false
}

// set adds id to bucket b's bitset.
func (r *readySet) set(b uint8, id int32) {
	w, i := r.sets[b], uint(id)
	for _, off := range r.level {
		p := &w[off+int(i>>6)]
		old := *p
		*p = old | 1<<(i&63)
		if old != 0 {
			return
		}
		i >>= 6
	}
}

// unset removes id from bucket b's bitset. If id was the bucket's lowest
// and others remain, the next lowest is found from the first word that
// stays nonzero: every bit below id's is clear, so that word's lowest bit
// leads down to it, most often in id's own word.
func (r *readySet) unset(b uint8, id int32) {
	w, i := r.sets[b], uint(id)
	for l, off := range r.level {
		p := &w[off+int(i>>6)]
		*p &^= 1 << (i & 63)
		if *p != 0 {
			if id == r.low[b] {
				j := int(i&^63) | bits.TrailingZeros64(*p)
				for l--; l >= 0; l-- {
					j = j<<6 | bits.TrailingZeros64(w[r.level[l]+j])
				}
				r.low[b] = int32(j)
			}
			return
		}
		i >>= 6
	}
}

func (r *readySet) push(e readyEntry) {
	r.heap = append(r.heap, e)
	r.siftUp(len(r.heap)-1, e)
}

// heapArity is the overflow heap's fan-out. Four children per entry halve
// the depth of a binary heap for a few more comparisons per level.
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
		r.loc[p.id] = int32(i)
		i = parent
	}
	r.heap[i] = e
	r.loc[e.id] = int32(i)
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
		r.loc[minE.id] = int32(i)
		i = min
	}
	r.heap[i] = e
	r.loc[e.id] = int32(i)
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
