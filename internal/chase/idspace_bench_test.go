package chase

import (
	"testing"

	"guardedrules/internal/budget"
	"guardedrules/internal/gen"
	"guardedrules/internal/parser"
)

// Engine comparison on the A2 workload (the running example over a
// citation graph): the id-space engine vs the retained term-space
// reference, sequential.
func BenchmarkEngineA2(b *testing.B) {
	th := parser.MustParseTheory(sigmaP)
	d := gen.CitationGraph(8)
	opts := Options{Variant: Oblivious, MaxDepth: 6, Budget: &budget.T{MaxFacts: 2_000_000}}
	b.Run("legacy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := legacyRun(th, d, opts, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("idspace", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := run(th, d, opts, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
