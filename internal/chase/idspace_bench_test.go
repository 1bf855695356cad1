package chase

import (
	"fmt"
	"runtime"
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

// Worker scaling of the re-sharded trigger collection on a wide
// restricted chase (many triggers per round).
func BenchmarkChaseParallel(b *testing.B) {
	th := parser.MustParseTheory(sigmaP)
	d := gen.CitationGraph(48)
	nW := runtime.GOMAXPROCS(0)
	for _, w := range []int{1, 2, 4, nW} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := Options{Variant: Restricted, MaxDepth: 4, Workers: w, Budget: &budget.T{MaxFacts: 2_000_000}}
				if _, err := run(th, d, opts, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
