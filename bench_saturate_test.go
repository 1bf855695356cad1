package guardedrules

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"guardedrules/internal/classify"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/gen"
	"guardedrules/internal/kb"
	"guardedrules/internal/kbcache"
	"guardedrules/internal/normalize"
	"guardedrules/internal/parser"
	"guardedrules/internal/rewrite"
	"guardedrules/internal/saturate"
	"guardedrules/internal/workload"
)

// satTemplate is one template of servebench's compile_miss cycle with
// its CQ and a small DB over its signature. The first 15 run a
// saturation: the 13 frontier-guarded seeds (rew then dat) and the two
// nearly guarded fixtures (dat). The plain-Datalog and certified-chase
// fixtures complete the cycle's 17 for the cold-CQ rows.
type satTemplate struct {
	name  string
	th    *core.Theory
	cq    string
	facts string
}

func saturateBenchTemplates() []satTemplate {
	var out []satTemplate
	for s := int64(1); s <= 13; s++ {
		rng := rand.New(rand.NewSource(s))
		var facts strings.Builder
		for k := 0; k < 6; k++ {
			fmt.Fprintf(&facts, "%s(d%d). ", []string{"A", "B", "C"}[rng.Intn(3)], rng.Intn(6))
		}
		for k := 0; k < 12; k++ {
			fmt.Fprintf(&facts, "%s(d%d,d%d). ", []string{"R", "S"}[rng.Intn(2)], rng.Intn(6), rng.Intn(6))
		}
		out = append(out, satTemplate{fmt.Sprintf("fg%d", s),
			gen.RandomFrontierGuardedTheory(gen.FGTheoryOptions{Rules: 6, Seed: s}), "R(X,Y) -> Ans(X,Y).", facts.String()})
	}
	return append(out,
		satTemplate{"dlsafe", parser.MustParseTheory(`Node(X) -> exists K. Token(X,K).
Token(X,K) -> Tagged(X).
E(X,Y) -> T(X,Y).
T(X,Y), T(Y,Z) -> T(X,Z).
T(X,Y), Tagged(X), Tagged(Y) -> Connected(X,Y).`), "Connected(X,Y) -> Ans(X,Y).", "Node(a). Node(b). Node(c). E(a,b). E(b,c)."},
		satTemplate{"example7", parser.MustParseTheory(workload.ExampleSeven), "D(X) -> Ans(X).", "A(c). C(c)."})
}

// coldOnlyTemplates are the compile_miss templates that run no
// saturation.
func coldOnlyTemplates() []satTemplate {
	return []satTemplate{
		{"transitive", parser.MustParseTheory(workload.Transitive), "T(X,Y) -> Ans(X,Y).", "E(a,b). E(b,c). E(c,d)."},
		{"wguarded", parser.MustParseTheory("A(X) -> exists Y. R(Y,X).\nR(Y,X), B(Z) -> P(Y,Z).\nP(Y,Z), R(Y,X) -> Out(X,Z)."), "Out(X,Z) -> Ans(X,Z).", "A(a). B(b)."},
	}
}

// satInput is what the kbcache route saturates: the theory itself when
// it is nearly guarded, rew(Σ) otherwise.
func satInput(b *testing.B, th *core.Theory) *core.Theory {
	b.Helper()
	if classify.Classify(th).Member[classify.NearlyGuarded] {
		return th
	}
	ng, _, err := rewrite.Rewrite(normalize.Normalize(th), rewrite.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return ng
}

// BenchmarkSaturate times the dat(Σ) saturation of every compile_miss
// template that saturates, three ways: Σ from scratch (registration),
// Σ∪q from scratch, and Σ∪q resumed from the frozen Ξ(Σ) (a cold CQ
// plan). Rewriting is done once, outside the timed region.
func BenchmarkSaturate(b *testing.B) {
	for _, tp := range saturateBenchTemplates() {
		q, err := kb.ParseCQ(tp.cq)
		if err != nil {
			b.Fatal(err)
		}
		att, err := kb.Attach(tp.th, q)
		if err != nil {
			b.Fatal(err)
		}
		sigma, sigmaQ := satInput(b, tp.th), satInput(b, att)
		_, base, _, err := saturate.Extend(nil, sigma, saturate.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			name string
			base *saturate.Closure
			th   *core.Theory
		}{{"sigma", nil, sigma}, {"sigma_q_scratch", nil, sigmaQ}, {"sigma_q_resumed", base, sigmaQ}} {
			b.Run(tp.name+"/"+c.name, func(b *testing.B) {
				var st *saturate.Stats
				for i := 0; i < b.N; i++ {
					var err error
					if _, _, st, err = saturate.Extend(c.base, c.th, saturate.Options{}); err != nil {
						b.Fatal(err)
					}
					if st.Resumed != (c.base != nil) {
						b.Fatalf("resumed=%v (%s), want %v", st.Resumed, st.FreshReason, c.base != nil)
					}
				}
				b.ReportMetric(float64(st.Inferences), "inferences")
				b.ReportMetric(float64(st.ComposePairs), "compose_pairs")
				b.ReportMetric(float64(st.ClosureRules), "closure_rules")
				b.ReportMetric(float64(st.DatalogRules), "datalog_rules")
				b.ReportMetric(float64(st.BaseRules), "base_rules")
			})
		}
	}
}

// BenchmarkRewrite times rew(Σ) alone, the Theorem 1 expansion of the
// normalized theory, for every compile_miss template that takes the
// rew→dat route.
func BenchmarkRewrite(b *testing.B) {
	for _, tp := range saturateBenchTemplates() {
		if classify.Classify(tp.th).Member[classify.NearlyGuarded] {
			continue
		}
		norm := normalize.Normalize(tp.th)
		b.Run(tp.name, func(b *testing.B) {
			var st *rewrite.Stats
			for i := 0; i < b.N; i++ {
				var err error
				if _, st, err = rewrite.Rewrite(norm, rewrite.Options{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.ExpansionRules), "expansion_rules")
			b.ReportMetric(float64(st.Selections), "selections")
		})
	}
}

// BenchmarkRegister times compile_miss's primary op in process for every
// template that saturates: each iteration registers the template with
// its relations renamed by a suffix the store has not seen, so the KB
// cache never hits. The sources are printed before the timer starts.
func BenchmarkRegister(b *testing.B) {
	for _, tp := range saturateBenchTemplates() {
		b.Run(tp.name, func(b *testing.B) {
			srcs := make([]string, b.N)
			for i := range srcs {
				th := tp.th.Clone()
				for _, r := range th.Rules {
					for j := range r.Body {
						r.Body[j].Atom.Relation += fmt.Sprintf("_%d", i)
					}
					for j := range r.Head {
						r.Head[j].Relation += fmt.Sprintf("_%d", i)
					}
				}
				srcs[i] = parser.PrintTheory(th)
			}
			st := kbcache.NewStore(kbcache.Config{})
			b.ResetTimer()
			for _, src := range srcs {
				if _, _, err := st.Register(context.Background(), src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColdCQ times the first read of every compile_miss template's
// CQ after registration, two ways: plan through AnswerCQ's dat(Σ∪q)
// plan, base through CompiledKB.Read of the CQ's selector, which for a
// single-atom CQ runs the KB's atom plan. Every read registers the
// theory on a fresh store, untimed. Both routes must give the same
// answers. The untimed registration dwarfs the timed read, so a
// time-based -benchtime would grow b.N until the reads alone fill it and
// run for minutes; the benchmark refuses one and takes -benchtime Nx.
func BenchmarkColdCQ(b *testing.B) {
	if bt := flag.Lookup("test.benchtime").Value.String(); !strings.HasSuffix(bt, "x") {
		b.Fatalf("-benchtime %s: every cold read registers its theory untimed, so a time-based run never ends; use -benchtime Nx, e.g. 20x", bt)
	}
	routes := []struct {
		name string
		read func(*kbcache.CompiledKB, kb.CQ, *database.Database) (*kbcache.QueryResult, error)
	}{
		{"plan", func(ckb *kbcache.CompiledKB, q kb.CQ, d *database.Database) (*kbcache.QueryResult, error) {
			return ckb.AnswerCQ(context.Background(), q, d, kbcache.QueryOptions{})
		}},
		{"base", func(ckb *kbcache.CompiledKB, q kb.CQ, d *database.Database) (*kbcache.QueryResult, error) {
			return ckb.Read(context.Background(), ckb.CQSelector(q), d, kbcache.QueryOptions{})
		}},
	}
	for _, tp := range append(saturateBenchTemplates(), coldOnlyTemplates()...) {
		q, err := kb.ParseCQ(tp.cq)
		if err != nil {
			b.Fatal(err)
		}
		d := database.FromAtoms(parser.MustParseFacts(tp.facts))
		src := parser.PrintTheory(tp.th)
		register := func(b *testing.B) *kbcache.CompiledKB {
			ckb, _, err := kbcache.NewStore(kbcache.Config{}).Register(context.Background(), src)
			if err != nil {
				b.Fatal(err)
			}
			return ckb
		}
		read := func(b *testing.B, route func(*kbcache.CompiledKB, kb.CQ, *database.Database) (*kbcache.QueryResult, error), ckb *kbcache.CompiledKB) *kbcache.QueryResult {
			res, err := route(ckb, q, d)
			if err != nil || !res.Exact || res.PlanHit {
				b.Fatalf("%s: cold read exact %v plan hit %v err %v", tp.name, res != nil && res.Exact, res != nil && res.PlanHit, err)
			}
			return res
		}
		plan, base := read(b, routes[0].read, register(b)), read(b, routes[1].read, register(b))
		if fmt.Sprint(plan.Answers) != fmt.Sprint(base.Answers) || len(base.Answers) == 0 {
			b.Fatalf("%s: the selector read answered %v, AnswerCQ %v", tp.name, base.Answers, plan.Answers)
		}
		for _, r := range routes {
			b.Run(tp.name+"/"+r.name, func(b *testing.B) {
				var res *kbcache.QueryResult
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					ckb := register(b)
					b.StartTimer()
					res = read(b, r.read, ckb)
				}
				b.ReportMetric(float64(len(res.Answers)), "answers")
			})
		}
	}
}
