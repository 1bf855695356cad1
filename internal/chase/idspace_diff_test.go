package chase

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"guardedrules/internal/budget"
	"guardedrules/internal/core"
	"guardedrules/internal/gen"
)

// Differential suite: the id-space engine must be byte-identical to the
// term-space reference engine (legacy_test.go) on databases with benign
// constant names — same database rendering, same step and round counts,
// same null depths, same provenance and chase trees — both saturating
// and under budgets.

func diffOpts(variant Variant) Options {
	return Options{Variant: variant, MaxDepth: 3, Budget: &budget.T{MaxFacts: 20_000}}
}

// compareRuns asserts the two results agree observably.
func compareRuns(t *testing.T, label string, want, got *Result, wantErr, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: errors diverge: legacy=%v idspace=%v", label, wantErr, gotErr)
	}
	if wantErr != nil && !errors.Is(gotErr, reasonOf(wantErr)) {
		t.Fatalf("%s: error reasons diverge: legacy=%v idspace=%v", label, wantErr, gotErr)
	}
	if want == nil || got == nil {
		if want != got {
			t.Fatalf("%s: one result is nil: legacy=%v idspace=%v", label, want, got)
		}
		return
	}
	if w, g := want.DB.String(), got.DB.String(); w != g {
		t.Fatalf("%s: databases diverge\nlegacy:\n%s\nidspace:\n%s", label, w, g)
	}
	if want.Steps != got.Steps {
		t.Fatalf("%s: Steps %d vs %d", label, want.Steps, got.Steps)
	}
	if want.Rounds != got.Rounds {
		t.Fatalf("%s: Rounds %d vs %d", label, want.Rounds, got.Rounds)
	}
	if want.Saturated != got.Saturated || want.Truncated != got.Truncated {
		t.Fatalf("%s: Saturated/Truncated (%v,%v) vs (%v,%v)", label,
			want.Saturated, want.Truncated, got.Saturated, got.Truncated)
	}
	if (want.Reason == nil) != (got.Reason == nil) ||
		(want.Reason != nil && !errors.Is(got.Reason, want.Reason)) {
		t.Fatalf("%s: Reason %v vs %v", label, want.Reason, got.Reason)
	}
	if !reflect.DeepEqual(want.Depth, got.Depth) {
		t.Fatalf("%s: null depth tables diverge:\nlegacy:  %v\nidspace: %v", label, want.Depth, got.Depth)
	}
}

func theoriesUnderTest(seed int64) map[string]*core.Theory {
	return map[string]*core.Theory{
		"fg":      gen.RandomFrontierGuardedTheory(gen.FGTheoryOptions{Rules: 6, Seed: seed}),
		"guarded": gen.RandomGuardedTheory(6, seed),
		"wfg":     gen.RandomWFGTheory(6, seed),
	}
}

func TestIDSpaceMatchesLegacyOnRandomTheories(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		db := gen.ABDatabase(12, seed)
		for name, th := range theoriesUnderTest(seed) {
			for _, variant := range []Variant{Oblivious, Restricted} {
				ref, refErr := legacyRun(th, db, diffOpts(variant), nil)
				got, gotErr := run(th, db, diffOpts(variant), nil)
				label := fmt.Sprintf("seed=%d theory=%s variant=%d", seed, name, variant)
				compareRuns(t, label, ref, got, refErr, gotErr)
			}
		}
	}
}

// Budget-governed runs must stop at the same trigger with the same
// partial result.
func TestIDSpaceMatchesLegacyUnderBudgets(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		db := gen.ABDatabase(10, seed)
		th := gen.RandomFrontierGuardedTheory(gen.FGTheoryOptions{Rules: 6, Seed: seed})
		for _, mk := range []func() Options{
			func() Options { return Options{Budget: &budget.T{MaxFacts: 25}, MaxDepth: 2} },
			func() Options { return Options{Budget: &budget.T{MaxSteps: 7}, MaxDepth: 2} },
			func() Options { return Options{Budget: &budget.T{MaxRounds: 2}, MaxDepth: 3} },
		} {
			ref, refErr := legacyRun(th, db, mk(), nil)
			got, gotErr := run(th, db, mk(), nil)
			label := fmt.Sprintf("seed=%d opts=%+v", seed, mk())
			compareRuns(t, label, ref, got, refErr, gotErr)
		}
	}
}

func TestIDSpaceMatchesLegacyProvenance(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		db := gen.ABDatabase(10, seed)
		th := gen.RandomFrontierGuardedTheory(gen.FGTheoryOptions{Rules: 6, Seed: seed})
		refRes, refProv, refErr := runWithProvenance(legacyRun, th, db, diffOpts(Oblivious))
		res, prov, err := runWithProvenance(run, th, db, diffOpts(Oblivious))
		label := fmt.Sprintf("prov seed=%d", seed)
		compareRuns(t, label, refRes, res, refErr, err)
		if !reflect.DeepEqual(refProv, prov) {
			t.Fatalf("%s: provenance diverges (%d vs %d entries)", label, len(refProv), len(prov))
		}
	}
}

func renderTree(tr *Tree) string {
	s := ""
	for _, n := range tr.Nodes {
		p := -1
		if n.Parent != nil {
			p = n.Parent.ID
		}
		s += fmt.Sprintf("node %d parent %d:", n.ID, p)
		for _, a := range n.Atoms {
			s += " " + a.String()
		}
		s += "\n"
	}
	return s
}

func TestIDSpaceMatchesLegacyTrees(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		db := gen.ABDatabase(10, seed)
		// Frontier-guarded single-head theories satisfy RunTree's normal-form
		// requirements.
		th := gen.RandomFrontierGuardedTheory(gen.FGTheoryOptions{Rules: 6, Seed: seed})
		refTree, refRes, refErr := runTree(legacyRun, th, db, diffOpts(Oblivious))
		tree, res, err := runTree(run, th, db, diffOpts(Oblivious))
		label := fmt.Sprintf("tree seed=%d", seed)
		compareRuns(t, label, refRes, res, refErr, err)
		if rt, gt := renderTree(refTree), renderTree(tree); rt != gt {
			t.Fatalf("%s: trees diverge\nlegacy:\n%s\nidspace:\n%s", label, rt, gt)
		}
	}
}

// Fault injection across both engines: at every checkpoint index, legacy
// and id-space runs must cancel at the same point with the same partial
// database. Trigger collection only polls the cancellation flag without
// consuming checkpoints, so the sweep stays aligned.
func TestIDSpaceMatchesLegacyFailAtSweep(t *testing.T) {
	db := gen.ABDatabase(10, 3)
	th := gen.RandomFrontierGuardedTheory(gen.FGTheoryOptions{Rules: 6, Seed: 3})
	for n := 1; ; n++ {
		if n > 10_000 {
			t.Fatal("fault injection never ran to completion")
		}
		opts := Options{MaxDepth: 2, Budget: budget.FailAt(n)}
		ref, refErr := legacyRun(th, db, opts, nil)
		got, gotErr := run(th, db, opts, nil)
		compareRuns(t, fmt.Sprintf("failat n=%d", n), ref, got, refErr, gotErr)
		if refErr == nil {
			break
		}
	}
}

// On adversarial constant names the legacy engine under-derives (its
// serialized trigger keys collide); the id-space engine must stay
// self-consistent across repeated runs and derive at least as much.
func TestIDSpaceSelfConsistentOnAdversarialNames(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		db := gen.AdversarialNames(12, seed)
		for name, th := range theoriesUnderTest(seed) {
			ref, refErr := run(th, db, diffOpts(Oblivious), nil)
			if refErr != nil {
				t.Fatalf("seed=%d theory=%s: %v", seed, name, refErr)
			}
			got, gotErr := run(th, db, diffOpts(Oblivious), nil)
			compareRuns(t, fmt.Sprintf("adv seed=%d theory=%s", seed, name), ref, got, refErr, gotErr)
			leg, legErr := legacyRun(th, db, diffOpts(Oblivious), nil)
			if legErr != nil {
				t.Fatalf("seed=%d theory=%s legacy: %v", seed, name, legErr)
			}
			if leg.Steps > ref.Steps {
				t.Fatalf("seed=%d theory=%s: legacy applied %d triggers, id-space %d — id-space must not under-derive",
					seed, name, leg.Steps, ref.Steps)
			}
		}
	}
}
