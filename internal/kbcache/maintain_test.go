package kbcache

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"guardedrules/internal/budget"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/gen"
	"guardedrules/internal/parser"
)

// A maintained CQ tracks the exact answers of AnswerCQ across mutation
// batches, and its deltas accumulate to the recomputed answer set.
func TestMaintainCQTracksRecompute(t *testing.T) {
	s := NewStore(Config{})
	ckb := mustRegister(t, s, tcSource)
	q := mustCQ(t, "T(X,Y) -> Ans(X,Y).")
	base := gen.Path(5)

	mq, err := ckb.MaintainCQ(context.Background(), q, base, QueryOptions{})
	if err != nil {
		t.Fatalf("MaintainCQ: %v", err)
	}

	// The shadow base mirrors every batch; after each Apply the handle's
	// answers must equal a fresh AnswerCQ over the shadow.
	shadow := database.New()
	for _, f := range base.UserFacts() {
		shadow.Add(f)
	}
	check := func() {
		t.Helper()
		want, err := ckb.AnswerCQ(context.Background(), q, shadow, QueryOptions{})
		if err != nil {
			t.Fatalf("AnswerCQ: %v", err)
		}
		got := mq.Answers()
		if fmt.Sprint(got) != fmt.Sprint(want.Answers) {
			t.Fatalf("maintained answers %v, recompute %v", got, want.Answers)
		}
	}
	check()

	add := parser.MustParseFacts(`E(v4, v0).`)
	d, err := mq.Apply(add, nil, QueryOptions{})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	for _, f := range add {
		shadow.Add(f)
	}
	if len(d.Added) == 0 || len(d.Removed) != 0 {
		t.Fatalf("cycle-closing insert: delta %+v", d)
	}
	check()

	del := parser.MustParseFacts(`E(v2, v3).`)
	d, err = mq.Apply(nil, del, QueryOptions{})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	shadow.Retract(del[0])
	if len(d.Removed) == 0 {
		t.Fatalf("cut edge: delta %+v", d)
	}
	check()

	if got := s.Metrics().Snapshot(); got["maintained_handles"] != 1 || got["maintain_batches"] != 2 {
		t.Fatalf("maintenance counters: handles=%d batches=%d", got["maintained_handles"], got["maintain_batches"])
	}
}

// A CQ whose plan falls back to a per-query bounded chase is rejected
// at registration with the typed error — classified once, via the same
// PlanInfo probe the admission tier uses.
func TestMaintainCQRejectsChasePlan(t *testing.T) {
	s := NewStore(Config{})
	ckb := mustRegister(t, s, wgSource)
	q := mustCQ(t, "S(Y,Z) -> Ans(Y,Z).")
	base := database.FromAtoms(parser.MustParseFacts("P(a)."))

	_, err := ckb.MaintainCQ(context.Background(), q, base, QueryOptions{})
	if !errors.Is(err, ErrNotMaintainable) {
		t.Fatalf("chase-plan registration: err = %v, want ErrNotMaintainable", err)
	}
	// The probe agrees: the plan is cached and chases per call.
	if cached, chasePerCall := ckb.PlanInfo(CQKey(q)); !cached || !chasePerCall {
		t.Fatalf("PlanInfo = (%v, %v), want cached chase plan", cached, chasePerCall)
	}
	if got := s.Metrics().Snapshot()["maintain_rejected"]; got != 1 {
		t.Fatalf("maintain_rejected = %d, want 1", got)
	}
}

// MaterializeCQ answers like AnswerCQ and hands back the maintained
// handle of an exact program-plan run. Each View of the handle is
// frozen at its version, answers like AnswerCQ there, and reads as a
// plan-hit query. Truncated runs and chase plans yield no handle.
func TestMaterializeCQViews(t *testing.T) {
	ctx := context.Background()
	s := NewStore(Config{})
	ckb := mustRegister(t, s, tcSource)
	q := mustCQ(t, "T(X,Y) -> Ans(X,Y).")
	base := gen.Path(5)

	sel := planSelector(q)
	res, mq, err := ckb.MaterializeCQ(ctx, q, base, QueryOptions{})
	if err != nil || mq == nil || !res.Exact {
		t.Fatalf("MaterializeCQ: handle %v exact %v err %v", mq != nil, res != nil && res.Exact, err)
	}
	want, err := ckb.AnswerCQ(ctx, q, base, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v1 := mq.View()
	if fmt.Sprint(res.Answers) != fmt.Sprint(want.Answers) || fmt.Sprint(v1.Answers(sel)) != fmt.Sprint(want.Answers) {
		t.Fatalf("materialized answers %v, view %v, AnswerCQ %v", res.Answers, v1.Answers(sel), want.Answers)
	}

	before := s.Metrics().Snapshot()
	r := v1.Read(sel)
	after := s.Metrics().Snapshot()
	if !r.Exact || !r.PlanHit || r.PlanKey != CQKey(q) || fmt.Sprint(r.Answers) != fmt.Sprint(want.Answers) {
		t.Fatalf("view read %+v", r)
	}
	if after["queries"] != before["queries"]+1 || after["plan_hits"] != before["plan_hits"]+1 || after["join_round_plans"] != before["join_round_plans"] {
		t.Fatalf("a view read must count one plan-hit query and run no engine: %v -> %v", before, after)
	}

	add := parser.MustParseFacts(`E(v5, v0).`)
	if _, err := mq.Apply(add, nil, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	next := base.Clone()
	next.Add(add[0])
	want2, err := ckb.AnswerCQ(ctx, q, next, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := mq.View().Answers(sel); fmt.Sprint(got) != fmt.Sprint(want2.Answers) {
		t.Fatalf("view after Apply %v, AnswerCQ %v", got, want2.Answers)
	}
	if fmt.Sprint(v1.Answers(sel)) != fmt.Sprint(want.Answers) {
		t.Fatal("Apply changed an earlier view")
	}

	// A truncated run is served, but yields no view.
	res, mq, err = ckb.MaterializeCQ(ctx, q, base, QueryOptions{Budget: &budget.T{FailAtCheckpoint: 2}})
	if !budget.IsBudget(err) || res == nil || res.Exact || mq != nil {
		t.Fatalf("truncated MaterializeCQ: handle %v err %v", mq != nil, err)
	}
	// A chase plan has no view.
	wg := mustRegister(t, s, wgSource)
	res, mq, err = wg.MaterializeCQ(ctx, mustCQ(t, "S(Y,Z) -> Ans(Y,Z)."), database.FromAtoms(parser.MustParseFacts("P(a).")), QueryOptions{})
	if err != nil || res == nil || mq != nil {
		t.Fatalf("chase-plan MaterializeCQ: handle %v err %v", mq != nil, err)
	}
}

// A plan view is Cached while its KB and plan are both cached;
// evicting either ends it.
func TestMaintainedLive(t *testing.T) {
	ctx := context.Background()
	s := NewStore(Config{MaxKBs: 1, MaxPlansPerKB: 1})
	ckb := mustRegister(t, s, tcSource)
	mq, err := ckb.MaintainCQ(ctx, mustCQ(t, "T(X,Y) -> Ans(X,Y)."), gen.Path(3), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Cached(ckb.ID, mq.PlanKey()) {
		t.Fatal("fresh handle not Cached")
	}
	if _, err := ckb.AnswerCQ(ctx, mustCQ(t, "E(X,Y) -> Ans(X,Y)."), gen.Path(3), QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	if s.Cached(ckb.ID, mq.PlanKey()) {
		t.Fatal("handle Cached after its plan was evicted")
	}
	mq, err = ckb.MaintainCQ(ctx, mustCQ(t, "T(X,Y) -> Ans(X,Y)."), gen.Path(3), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustRegister(t, s, wgSource)
	if s.Cached(ckb.ID, mq.PlanKey()) {
		t.Fatal("handle Cached after its KB was evicted")
	}
}

// CQSelector routes a CQ of one atom whose every variable is an answer
// variable (constants, repeated variables and permuted or empty answers
// included) to the KB's base view, and every other CQ to its own plan's
// view. A base-view CQ reports the atom plan of its atom's binding
// pattern, which its reads without a view run; a plan-view CQ reports
// its own plan. A KB without a compiled program has no base view: its
// CQs read their plans' views and its atom queries no view at all.
func TestCQSelectorRoutes(t *testing.T) {
	s := NewStore(Config{})
	ng := mustRegister(t, s, e5Source)
	for cq, base := range map[string]bool{
		"T(X,Y) -> Ans(X,Y).":            true,
		"T(X,Y) -> Ans(Y,X).":            true,
		"T(v0,Y) -> Ans(Y).":             true,
		"T(X,X) -> Ans(X).":              true,
		"T(v0,v1) -> Ans().":             true,
		"T(X,Y) -> Ans(X).":              false,
		"T(X,Y), B(Y) -> Ans(X,Y).":      false,
		"Linked(X,Y), T(Y,X) -> Ans(X).": false,
	} {
		q := mustCQ(t, cq)
		sel := ng.CQSelector(q)
		view, plan := CQKey(q), CQKey(q)
		if base {
			view, plan = BaseKey, AtomKey(q.Atoms[0])
		}
		if sel.View() != view || sel.PlanKey() != plan {
			t.Errorf("%s: view %q plan %q, want view %q plan %q", cq, sel.View(), sel.PlanKey(), view, plan)
		}
	}
	if sel := ng.AtomSelector(core.NewAtom("T", core.Const("v0"), core.Var("Y"))); sel == nil || sel.View() != BaseKey || sel.PlanKey() != "atom:T/bf" {
		t.Errorf("atom selector %+v, want the base view under plan key atom:T/bf", sel)
	}
	wg := mustRegister(t, s, wgSource)
	if q := mustCQ(t, "S(Y,Z) -> Ans(Y,Z)."); wg.CQSelector(q).View() != CQKey(q) {
		t.Error("a chase-mode KB has no base view")
	}
	if wg.AtomSelector(core.NewAtom("S", core.Var("Y"), core.Var("Z"))) != nil {
		t.Error("a chase-mode KB's atom queries read no view")
	}
}
