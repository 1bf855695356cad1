package rewrite

import (
	"guardedrules/internal/core"
)

// starSuffix is appended to relation names by Axiomatize.
const starSuffix = "_star"

// Star returns the starred name of a relation (R ↦ R*).
func Star(rel string) string { return rel + starSuffix }

// Axiomatize computes Σ* of Definition 15 / Proposition 5: the built-in
// relation ACDom is eliminated by moving the theory to starred relations
// and axiomatizing ACDom* from the input relations. For a query (Σ, Q),
// (Σ*, Q*) returns the same answers over every database, with Σ* free of
// the built-in ACDom.
func Axiomatize(th *core.Theory) *core.Theory {
	out := core.NewTheory()
	for _, r := range th.Rules {
		nr := r.Clone()
		for i := range nr.Body {
			nr.Body[i].Atom.Relation = Star(nr.Body[i].Atom.Relation)
		}
		for i := range nr.Head {
			nr.Head[i].Relation = Star(nr.Head[i].Relation)
		}
		out.Add(nr)
	}
	// (a) copy rules and (b) ACDom* population, for every relation of Σ
	// other than the built-in ACDom (which has no stored extension).
	acdomStar := Star(core.ACDom)
	for _, rk := range th.Relations() {
		if rk.Name == core.ACDom {
			continue
		}
		args := make([]core.Term, rk.Arity)
		for i := range args {
			args[i] = core.Var(varName(i))
		}
		var ann []core.Term
		for i := 0; i < rk.AnnArity; i++ {
			ann = append(ann, core.Var(varName(rk.Arity+i)))
		}
		src := core.Atom{Relation: rk.Name, Args: args, Annotation: ann}
		dst := core.Atom{Relation: Star(rk.Name), Args: args, Annotation: ann}
		out.Add(core.NewRule([]core.Atom{src}, nil, dst))
		for i := 0; i < rk.Arity; i++ {
			out.Add(core.NewRule([]core.Atom{src}, nil, core.NewAtom(acdomStar, args[i])))
		}
		// Annotation positions hold active constants as well.
		for i := 0; i < rk.AnnArity; i++ {
			out.Add(core.NewRule([]core.Atom{src}, nil, core.NewAtom(acdomStar, ann[i])))
		}
	}
	// (c) constants of Σ.
	for _, c := range th.Constants().Sorted() {
		out.Add(core.Fact(core.NewAtom(acdomStar, c)))
	}
	return core.StampGenerated(out, "acdom-axiomatization")
}

// varName is x0..x9, then x0a..x9a, x0b and so on.
func varName(i int) string {
	if i < 10 {
		return "x" + string(rune('0'+i))
	}
	return "x" + string(rune('0'+i%10)) + string(rune('a'+(i/10-1)%26))
}
