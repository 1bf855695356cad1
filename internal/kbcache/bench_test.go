package kbcache

import (
	"context"
	"fmt"
	"testing"

	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/gen"
	"guardedrules/internal/kb"
	"guardedrules/internal/parser"
)

// The serving-layer acceptance benchmark: repeat queries against one
// Store amortize all pay-once work (parse, lint, classify, stratify,
// compile, CQ plan construction) and must beat compile-per-call by a
// wide margin on the E11 transitive-closure workload.

const benchCQ = "T(X,Y) -> Ans(X,Y)."

// BenchmarkColdQuery pays the full pipeline on every call: a fresh
// Store per iteration means Register recompiles and AnswerCQ rebuilds
// the plan from scratch.
func BenchmarkColdQuery(b *testing.B) {
	d := gen.Path(2)
	q, err := kb.ParseCQ(benchCQ)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewStore(Config{})
		ckb, _, err := s.Register(context.Background(), tcSource)
		if err != nil {
			b.Fatal(err)
		}
		res, err := ckb.AnswerCQ(context.Background(), q, d, QueryOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Answers) == 0 {
			b.Fatal("no answers")
		}
	}
}

// BenchmarkWarmQuery registers once and re-answers the same CQ shape:
// every iteration is a plan-cache hit, leaving only id-space evaluation.
func BenchmarkWarmQuery(b *testing.B) {
	d := gen.Path(2)
	q, err := kb.ParseCQ(benchCQ)
	if err != nil {
		b.Fatal(err)
	}
	s := NewStore(Config{})
	ckb, _, err := s.Register(context.Background(), tcSource)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ckb.AnswerCQ(context.Background(), q, d, QueryOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ckb.AnswerCQ(context.Background(), q, d, QueryOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.PlanHit || len(res.Answers) == 0 {
			b.Fatal("warm path must hit the plan cache")
		}
	}
}

// BenchmarkColdQueryTranslated/BenchmarkWarmQueryTranslated show the
// same split on a nearly-guarded theory, where the cold path also pays
// the saturation-based Datalog translation (Theorem 3 / Prop. 6).
func BenchmarkColdQueryTranslated(b *testing.B) {
	d := e5Facts(2)
	q, err := kb.ParseCQ("B(X) -> Ans(X).")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewStore(Config{})
		ckb, _, err := s.Register(context.Background(), e5Source)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ckb.AnswerCQ(context.Background(), q, d, QueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWarmQueryTranslated(b *testing.B) {
	d := e5Facts(2)
	q, err := kb.ParseCQ("B(X) -> Ans(X).")
	if err != nil {
		b.Fatal(err)
	}
	s := NewStore(Config{})
	ckb, _, err := s.Register(context.Background(), e5Source)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ckb.AnswerCQ(context.Background(), q, d, QueryOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ckb.AnswerCQ(context.Background(), q, d, QueryOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.PlanHit {
			b.Fatal("warm path must hit the plan cache")
		}
	}
}

// hotSource is a nearly guarded theory served through dat(Σ): value
// invention feeds B, and T is the transitive closure of E.
const hotSource = `A(X) -> exists Y. R(X,Y).
R(X,Y) -> B(X).
E(X,Y) -> T(X,Y).
T(X,Y), T(Y,Z) -> T(X,Z).
T(X,Y), B(X), B(Y) -> Linked(X,Y).
`

// chainDB builds `chains` disjoint E-chains of `edges` edges each, node
// k of chain c named <prefix><c>_<k>, with an A fact on every node but
// the last: servebench's chain DBs.
func chainDB(prefix string, chains, edges int) *database.Database {
	node := func(c, k int) core.Term { return core.Const(fmt.Sprintf("%s%d_%d", prefix, c, k)) }
	d := database.New()
	for c := 0; c < chains; c++ {
		for k := 0; k < edges; k++ {
			d.Add(core.NewAtom("E", node(c, k), node(c, k+1)))
			d.Add(core.NewAtom("A", node(c, k)))
		}
	}
	return d
}

// BenchmarkAnswerAtomWide is one goal-directed atom read on a wide DB:
// 300, 1,200 or 4,800 disjoint 12-edge E-chains with an A fact on every
// node but the last (37 facts per chain counting ACDom; servebench's
// read_mix side op reads the 1,200-chain DB). T(w7_0,Y) runs the
// magic-sets plan, which derives only chain 7's closure: its cost should
// not grow with the number of chains, which the three sizes show.
// T(w<chains-1>_0,Y) derives the last chain's closure, over the highest
// term ids of the DB: a read's cost should not grow with the ids it
// touches either. E(w7_0,Y) asks a relation no rule derives: it reads
// the DB's index and runs no engine.
//
//	go test -run '^$' -bench BenchmarkAnswerAtomWide -benchmem ./internal/kbcache
func BenchmarkAnswerAtomWide(b *testing.B) {
	const edges = 12
	ckb, _, err := NewStore(Config{}).Register(context.Background(), hotSource)
	if err != nil {
		b.Fatal(err)
	}
	for _, chains := range []int{300, 1200, 4800} {
		d := chainDB("w", chains, edges)
		if d.Len() != 37*chains {
			b.Fatalf("wide DB has %d facts, want %d", d.Len(), 37*chains)
		}
		for _, tc := range []struct {
			query   core.Atom
			answers int
		}{
			{core.NewAtom("T", core.Const("w7_0"), core.Var("Y")), edges},
			{core.NewAtom("T", core.Const(fmt.Sprintf("w%d_0", chains-1)), core.Var("Y")), edges},
			{core.NewAtom("E", core.Const("w7_0"), core.Var("Y")), 1},
		} {
			b.Run(fmt.Sprintf("chains=%d/%s", chains, parser.PrintAtom(tc.query)), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := ckb.AnswerAtom(context.Background(), tc.query, d, QueryOptions{})
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Answers) != tc.answers {
						b.Fatalf("%v has %d answers, want %d", tc.query, len(res.Answers), tc.answers)
					}
				}
			})
		}
	}
}

// BenchmarkMutateLiveBatch is servebench's mutate_live batch in process,
// on its DB of 20 chains of 20 edges with live T and Linked
// subscriptions, and on 80 and 320 such chains: a batch's cost should
// follow the change, not the DB, which the three sizes show (the facts
// counter is the fixpoint's size). Op i retracts chain edge i/2 (i even)
// or re-adds it (i odd), so the fixpoint stays the same size. Each op
// clones the DB and applies the edge, advances the base view both
// subscriptions read, and filters the view's fact delta into each
// subscription's answer delta.
//
//	go test -run '^$' -bench BenchmarkMutateLiveBatch -benchmem ./internal/kbcache
func BenchmarkMutateLiveBatch(b *testing.B) {
	ckb, _, err := NewStore(Config{}).Register(context.Background(), hotSource)
	if err != nil {
		b.Fatal(err)
	}
	for _, chains := range []int{20, 80, 320} {
		b.Run(fmt.Sprintf("chains=%d", chains), func(b *testing.B) { benchMutateLive(b, ckb, chains) })
	}
}

// benchMutateLive runs BenchmarkMutateLiveBatch on a DB of `chains`
// chains of 20 edges.
func benchMutateLive(b *testing.B, ckb *CompiledKB, chains int) {
	ctx := context.Background()
	d := chainDB("m", chains, 20)
	var sels []*Selector
	for _, src := range []string{"T(X,Y) -> Ans(X,Y).", "Linked(X,Y) -> Ans(X,Y)."} {
		q, err := kb.ParseCQ(src)
		if err != nil {
			b.Fatal(err)
		}
		sels = append(sels, ckb.CQSelector(q))
	}
	mv, err := ckb.Maintain(ctx, sels[0], d, QueryOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if sels[1].View() != mv.Key() {
		b.Fatal("T and Linked must share the base view")
	}
	edges := d.Facts(core.RelKey{Name: "E", Arity: 2})
	b.ReportMetric(float64(mv.View().fix.Len()), "facts")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var add, del []core.Atom
		if e := edges[i/2%len(edges) : i/2%len(edges)+1]; i%2 == 0 {
			del = e
		} else {
			add = e
		}
		next := d.Clone()
		for _, f := range del {
			next.Retract(f)
		}
		for _, f := range add {
			next.Add(f)
		}
		delta, err := mv.Apply(add, del, QueryOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for _, sel := range sels {
			sel.Delta(delta)
		}
		d = next
	}
}
