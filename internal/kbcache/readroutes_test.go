package kbcache

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/parser"
)

// readModes are one theory per serving mode, each deriving a binary T
// with ground tuples, a T(a,_) and a T(x,x) over readFacts.
var readModes = []struct {
	name, src string
	mode      Mode
	chain     string // a substring of the KB's chain
}{
	{"datalog", tcSource, ModeDatalog, "plain Datalog"},
	{"translated NG", `
		A(X) -> exists Y. R(X,Y).
		R(X,Y) -> B(X).
		E(X,Y), B(X) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
	`, ModeTranslated, "dat(Σ): nearly guarded"},
	{"translated NFG", `
		A(X) -> exists Y. R(X,Y).
		R(X,Y), A(Z) -> B(X).
		E(X,Y), B(X) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
	`, ModeTranslated, "dat(rew(Σ))"},
	{"chase", `
		S(Y,Z), S(Z,W) -> S(Y,W).
		S(Y,Z) -> exists W. S(Z,W).
		S(X,Y) -> T(X,Y).
	`, ModeChase, "bounded chase"},
	{"certified", jaSource + "S(X,Y) -> T(X,Y).", ModeCertified, "termination certificate"},
}

const readFacts = `E(a,b). E(b,c). E(c,a). A(a). A(b). A(c). S(a,b). S(b,a). P(a). B(a).`

// readShapes are the CQ shapes every route must answer alike. base says
// whether a KB with a compiled program reads the shape from its base
// view (CQSelector) rather than from the view of its own plan.
var readShapes = []struct {
	name, cq string
	base     bool
}{
	{"atom", "T(X,Y) -> Ans(X,Y).", true},
	{"constant", "T(a,Y) -> Ans(Y).", true},
	{"repeated variable", "T(X,X) -> Ans(X).", true},
	{"several atoms", "T(X,Y), T(Y,Z) -> Ans(X,Z).", false},
	{"non-answer variable", "T(X,Y) -> Ans(X).", false},
	{"boolean", "T(X,Y) -> Ans().", false},
}

// routeCounters are the Metrics a read moves that /metrics and the
// serving benchmark's plan-hit ratio report.
var routeCounters = []string{
	"queries", "plan_hits", "plan_misses", "query_errors",
	"compile_hits", "compile_misses", "compile_dedup", "artifact_loads",
	"kb_evictions", "plan_evictions",
}

func counterDelta(before, after map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for _, k := range routeCounters {
		if d := after[k] - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// Every read route — AnswerCQ, Read and Materialize through the CQ's
// selector, the materialized view, and MaintainCQ — gives one answer
// list for every CQ shape in every mode, Boolean CQs included (a true
// one answers one empty tuple), and moves the counters as pinned.
func TestReadRoutes(t *testing.T) {
	ctx := context.Background()
	d := database.FromAtoms(parser.MustParseFacts(readFacts))
	for _, m := range readModes {
		for _, sh := range readShapes {
			t.Run(m.name+"/"+sh.name, func(t *testing.T) {
				// A fresh store per row, so each row's first read is cold.
				s := NewStore(Config{DefaultChaseDepth: 2})
				ckb := mustRegister(t, s, m.src)
				if ckb.Mode != m.mode || !strings.Contains(strings.Join(ckb.Chain, "\n"), m.chain) {
					t.Fatalf("mode %v, chain %q; want %v with %q", ckb.Mode, ckb.Chain, m.mode, m.chain)
				}
				q := mustCQ(t, sh.cq)
				sel := ckb.CQSelector(q)
				compiled := ckb.Program() != nil
				if base := sel.View() == BaseKey; base != (compiled && sh.base) {
					t.Fatalf("selector reads base view = %v", base)
				}
				base := compiled && sh.base

				// The pinned deltas. A base-view read without a kept view
				// runs its pattern's atom plan, built cold here; every
				// other route finds its plan cached by AnswerCQ.
				readDelta := map[string]int64{"queries": 1, "plan_hits": 1}
				if base {
					readDelta = map[string]int64{"queries": 1, "plan_misses": 1}
				}
				type route struct {
					name  string
					delta map[string]int64
					run   func() ([][]core.Term, error)
				}
				var answerCQ, read, mat *QueryResult
				var mv *MaintainedView
				routes := []route{
					{"AnswerCQ", map[string]int64{"queries": 1, "plan_misses": 1}, func() (a [][]core.Term, err error) {
						answerCQ, err = ckb.AnswerCQ(ctx, q, d, QueryOptions{})
						if answerCQ != nil {
							a = answerCQ.Answers
						}
						return a, err
					}},
					{"Read", readDelta, func() (a [][]core.Term, err error) {
						read, err = ckb.Read(ctx, sel, d, QueryOptions{})
						if read != nil {
							a = read.Answers
						}
						return a, err
					}},
					{"Materialize", map[string]int64{"queries": 1, "plan_hits": 1}, func() (a [][]core.Term, err error) {
						mat, mv, err = ckb.Materialize(ctx, sel, d, QueryOptions{})
						if mat != nil {
							a = mat.Answers
						}
						return a, err
					}},
					{"View", map[string]int64{}, func() ([][]core.Term, error) {
						if mv == nil {
							return nil, errors.New("Materialize kept no view")
						}
						return mv.View().Answers(sel), nil
					}},
					{"MaintainCQ", map[string]int64{"plan_hits": 1}, func() ([][]core.Term, error) {
						mq, err := ckb.MaintainCQ(ctx, q, d, QueryOptions{})
						if err != nil {
							return nil, err
						}
						return mq.Answers(), nil
					}},
				}
				var want [][]core.Term
				for i, r := range routes {
					before := s.Metrics().Snapshot()
					got, err := r.run()
					if delta := counterDelta(before, s.Metrics().Snapshot()); !reflect.DeepEqual(delta, r.delta) {
						t.Errorf("%s: counter delta %v, want %v", r.name, delta, r.delta)
					}
					if !compiled && (r.name == "View" || r.name == "MaintainCQ") {
						// A chase plan keeps no view and cannot be maintained.
						if r.name == "MaintainCQ" && !errors.Is(err, ErrNotMaintainable) {
							t.Errorf("MaintainCQ: err %v, want ErrNotMaintainable", err)
						}
						if r.name == "View" && mv != nil {
							t.Error("Materialize kept a view of a chase plan")
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s: %v", r.name, err)
					}
					if i == 0 {
						if want = got; len(want) == 0 {
							t.Fatal("AnswerCQ: no answers")
						}
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s answers %#v, AnswerCQ answers %#v", r.name, got, want)
					}
				}
				if sh.name == "boolean" && !reflect.DeepEqual(want, [][]core.Term{{}}) {
					t.Errorf("a true Boolean CQ answers %#v, want one empty tuple", want)
				}
				if answerCQ.Exact != read.Exact || read.Exact != mat.Exact {
					t.Errorf("exact: AnswerCQ %v, Read %v, Materialize %v", answerCQ.Exact, read.Exact, mat.Exact)
				}
			})
		}
	}
}
