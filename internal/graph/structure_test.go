package graph_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"

	"catamount/internal/graph"
	"catamount/internal/models"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/structure.golden from the current build")

const structureGolden = "testdata/structure.golden"

// structureDigest hashes g's structure in order: every node (name, op
// kind, group, input and output tensor ids) and every tensor (name, kind,
// dtype, shape, group, producer id, -1 for none). Ids are positions in
// Nodes() and Tensors().
func structureDigest(g *graph.Graph) string {
	tensorID := make(map[*graph.Tensor]int, len(g.Tensors()))
	for i, t := range g.Tensors() {
		tensorID[t] = i
	}
	nodeID := make(map[*graph.Node]int, len(g.Nodes()))
	for i, n := range g.Nodes() {
		nodeID[n] = i
	}
	h := sha256.New()
	ids := func(h hash.Hash, ts []*graph.Tensor) {
		for _, t := range ts {
			fmt.Fprintf(h, " %d", tensorID[t])
		}
	}
	for _, n := range g.Nodes() {
		fmt.Fprintf(h, "node %q %q %q in", n.Name, n.Op.Kind(), n.Group)
		ids(h, n.Inputs)
		fmt.Fprint(h, " out")
		ids(h, n.Outputs)
		fmt.Fprintln(h)
	}
	for _, t := range g.Tensors() {
		producer := -1
		if t.Producer != nil {
			producer = nodeID[t.Producer]
		}
		fmt.Fprintf(h, "tensor %q %s %s %q %q %d\n", t.Name, t.Kind, t.DType, t.Shape, t.Group, producer)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStructureDigests pins every domain graph's node and tensor names,
// order and wiring. The goldens print few names, so a renamed gradient
// partial (d:softmax_w#k) or a reordered edge shows only here. Run with
// -update-golden to rewrite the expected digests after an intended
// change.
func TestStructureDigests(t *testing.T) {
	var got strings.Builder
	for _, d := range models.AllDomains {
		g := domainModel(d).Graph
		fmt.Fprintf(&got, "%s %d %d %s\n", d, len(g.Nodes()), len(g.Tensors()), structureDigest(g))
	}
	if *updateGolden {
		if err := os.WriteFile(structureGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(structureGolden)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	gotLines := strings.Split(strings.TrimSpace(got.String()), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%d domains digested, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("structure changed:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}
