package graphio

import (
	"bytes"
	"testing"

	"catamount/internal/graph"
	"catamount/internal/models"
)

// BenchmarkLoadCompile is the work /v1/checkpoint/analyze does inside the
// request before it evaluates a point: decode a saved checkpoint of the
// default word-LM graph and compile it.
func BenchmarkLoadCompile(b *testing.B) {
	m, err := models.Build(models.WordLM)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, m.Graph); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		graph.Compile(g)
	}
}
