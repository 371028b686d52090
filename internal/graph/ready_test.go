package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestReadySetMatchesOracleHeap drives the ready set and oracleHeap with
// the same random add, decrease and next sequences and requires the same
// pick at every step. The sequences cover:
//   - many equal keys, so the id decides most picks;
//   - decreases that land a key on the key of another ready node;
//   - ties between the slot's node and a bucket's lowest id;
//   - more distinct keys than buckets, so the overflow heap holds keys
//     that buckets hold too, infinite keys among them;
//   - ids at every bitset level: graphs of 1 to 2^19 + 2^16 nodes (one to
//     four levels), with ids in runs that cross word boundaries and spread
//     over the whole range;
//   - one set reused across node counts, and reset with nodes still in it.
func TestReadySetMatchesOracleHeap(t *testing.T) {
	seqs, steps := 240, 3000
	if testing.Short() {
		seqs, steps = 60, 1000
	}
	nodeCounts := []int{1, 64, 65, 4096, 4097, 1 << 18, 1<<19 + 1<<16}
	keyGens := []struct {
		name string
		key  func(*rand.Rand) float64
	}{
		{"ties", func(rng *rand.Rand) float64 { return float64(rng.Intn(3)) }},
		{"few", func(rng *rand.Rand) float64 { return float64(rng.Intn(maxBuckets - 4)) }},
		{"many", func(rng *rand.Rand) float64 {
			if rng.Intn(20) == 0 {
				return math.Inf(2*rng.Intn(2) - 1)
			}
			return float64(rng.Intn(3 * maxBuckets))
		}},
		{"distinct", func(rng *rand.Rand) float64 { return rng.Float64() * 1e6 }},
	}
	rng := rand.New(rand.NewSource(4))
	var r readySet
	for s := 0; s < seqs; s++ {
		n := nodeCounts[rng.Intn(len(nodeCounts))]
		gen := keyGens[rng.Intn(len(keyGens))]
		name := fmt.Sprintf("seq %d (%d nodes, %s keys)", s, n, gen.name)
		pool := idPool(rng, n)
		var o oracleHeap
		o.reset(n)
		r.reset(n)
		var ready []int32 // ids in the set, in no order
		pick := func(step int) {
			want, got := int32(o.pop()), r.next()
			if got != want {
				t.Fatalf("%s step %d: next = %d, oracle %d", name, step, got, want)
			}
			for i, id := range ready {
				if id == want {
					ready[i] = ready[len(ready)-1]
					ready = ready[:len(ready)-1]
					break
				}
			}
		}
		for step := 0; step < steps; step++ {
			id := pool[rng.Intn(len(pool))]
			if got, want := r.contains(id), o.contains(int(id)); got != want {
				t.Fatalf("%s step %d: contains(%d) = %v, oracle %v", name, step, id, got, want)
			}
			switch op := rng.Intn(20); {
			case op < 9 || len(ready) == 0:
				if o.contains(int(id)) {
					continue
				}
				key := gen.key(rng)
				o.push(int(id), key)
				r.add(id, key)
				ready = append(ready, id)
			case op < 14:
				id = ready[rng.Intn(len(ready))]
				by := decreaseBy(rng, &o, id, ready)
				o.decrease(int(id), o.key(int(id))-by)
				r.decrease(id, by)
			default:
				pick(step)
			}
		}
		if rng.Intn(4) == 0 {
			continue // leave nodes in the set for the next reset to clear
		}
		for step := steps; o.len() > 0; step++ {
			pick(step)
		}
		if id := r.next(); id != -1 {
			t.Fatalf("%s: drained set still yields %d", name, id)
		}
	}
}

// idPool draws the ids one sequence uses from [0, n): both ends, runs of
// consecutive ids that cross word boundaries, and ids spread at random.
func idPool(rng *rand.Rand, n int) []int32 {
	seen := map[int32]bool{}
	var pool []int32
	take := func(id int) {
		if id >= 0 && id < n && !seen[int32(id)] {
			seen[int32(id)] = true
			pool = append(pool, int32(id))
		}
	}
	take(0)
	take(n - 1)
	for i := 0; i < 4; i++ {
		base := rng.Intn(n)
		for j, run := 0, 1+rng.Intn(150); j < run; j++ {
			take(base + j)
		}
	}
	for i := 0; i < 200; i++ {
		take(rng.Intn(n))
	}
	return pool
}

// decreaseBy picks how far to lower the key of ready node id: by nothing,
// onto the lower key of another ready node when one turns up, or by a
// small or a fractional amount.
func decreaseBy(rng *rand.Rand, o *oracleHeap, id int32, ready []int32) float64 {
	k := o.key(int(id))
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		for try := 0; try < 8; try++ {
			k2 := o.key(int(ready[rng.Intn(len(ready))]))
			if k2 < k && !math.IsInf(k, 0) && !math.IsInf(k2, 0) {
				return k - k2
			}
		}
	case 2:
		return rng.Float64() * 100
	}
	return float64(1 + rng.Intn(2))
}

// TestFootprintScratchReusedAcrossGraphs runs one FootprintScratch over
// graphs of different node counts in turn, under both policies. Every
// result matches the oracle, and once the scratch has grown to the largest
// graph a pass over all of them allocates nothing.
func TestFootprintScratchReusedAcrossGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	type row struct {
		c     *Compiled
		uniq  []float64
		bytes []float64
	}
	var rows []row
	for _, g := range []*Graph{
		wideTieDAG(rng, "wide0"), buildChainGraph(5000), randomDAG(rng, "dag"),
		wideTieDAG(rng, "wide1"), buildChainGraph(70),
	} {
		c := Compile(g)
		b := c.NewBatch(1)
		if slot, ok := c.Syms.Slot("h"); ok {
			b.Set(0, slot, 64)
		}
		var bs BatchScratch
		uniq := c.TensorBytesBatch(b, nil, &bs.Eval)
		bytes := make([]float64, len(g.tensors))
		for i := range bytes {
			bytes[i] = uniq[c.TensorIndex(i)]
		}
		rows = append(rows, row{c, uniq, bytes})
	}
	var fs FootprintScratch
	pass := func(check bool) {
		for _, r := range rows {
			for _, policy := range []SchedulePolicy{PolicyFIFO, PolicyMemGreedy} {
				got, err := r.c.FootprintFromBatch(r.uniq, 1, 0, policy, &fs)
				if err != nil {
					t.Fatal(err)
				}
				if check {
					checkFootprint(t, r.c.Graph, r.bytes, policy, got)
				}
			}
		}
	}
	pass(true)
	if allocs := testing.AllocsPerRun(10, func() { pass(false) }); allocs > 0 {
		t.Fatalf("a warm pass over %d graphs allocates %v times", len(rows), allocs)
	}
}
