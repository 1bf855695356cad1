package main

import (
	"slices"
	"testing"
)

// The writer must keep the fixpoint stationary: it never has more than
// maxRetracted edges out, retracts only present edges and re-adds only
// retracted ones.
func TestEdgeWriterStationary(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		e := newEdgeWriter(seed)
		out := map[int]bool{}
		var retracts, readds int
		for i := 0; i < 5000; i++ {
			edge, retract := e.next()
			if edge < 0 || edge >= mutChains*mutEdges {
				t.Fatalf("seed %d batch %d: edge %d outside the forest", seed, i, edge)
			}
			if retract == out[edge] {
				t.Fatalf("seed %d batch %d: retract=%v of an edge that is out=%v", seed, i, retract, out[edge])
			}
			out[edge] = retract
			if retract {
				retracts++
			} else {
				readds++
				delete(out, edge)
			}
			if len(out) > maxRetracted || len(e.retracted) != len(out) {
				t.Fatalf("seed %d batch %d: %d edges out (writer says %d), cap %d", seed, i, len(out), len(e.retracted), maxRetracted)
			}
		}
		if retracts-readds > maxRetracted || readds == 0 {
			t.Fatalf("seed %d: %d retracts, %d re-adds", seed, retracts, readds)
		}
	}
}

func TestEdgeWriterDeterministic(t *testing.T) {
	stream := func(seed int64) []map[string]string {
		e := newEdgeWriter(seed)
		var out []map[string]string
		for i := 0; i < 300; i++ {
			out = append(out, e.batch())
		}
		return out
	}
	same := func(a, b []map[string]string) bool {
		return slices.EqualFunc(a, b, func(x, y map[string]string) bool {
			return x["add"] == y["add"] && x["retract"] == y["retract"]
		})
	}
	if !same(stream(7), stream(7)) {
		t.Fatal("the same seed gave two different batch streams")
	}
	if same(stream(7), stream(8)) {
		t.Fatal("seeds 7 and 8 gave the same batch stream")
	}
	// The traced replay's batchAt must walk the same stream.
	full := stream(7)
	for _, n := range []int{0, 1, 17, 299} {
		if got := newEdgeWriter(7).batchAt(n); got["add"] != full[n]["add"] || got["retract"] != full[n]["retract"] {
			t.Fatalf("batchAt(%d) = %v, stream has %v", n, got, full[n])
		}
	}
}
