package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTermBasics(t *testing.T) {
	c := Const("a")
	n := NewNull("n1")
	v := Var("x")
	if !c.IsConst() || c.IsNull() || c.IsVar() {
		t.Errorf("constant kind predicates wrong: %v", c)
	}
	if !n.IsNull() || !n.IsGround() {
		t.Errorf("null kind predicates wrong: %v", n)
	}
	if !v.IsVar() || v.IsGround() {
		t.Errorf("variable kind predicates wrong: %v", v)
	}
	if n.String() != "_:n1" {
		t.Errorf("null rendering: got %q", n.String())
	}
	if Const("a") != c {
		t.Error("terms must be comparable values")
	}
	if Const("x") == Var("x") {
		t.Error("constant and variable with same name must differ")
	}
}

func TestTermSetOps(t *testing.T) {
	s := NewTermSet(Var("x"), Var("y"))
	o := NewTermSet(Var("y"), Var("z"))
	if !s.Has(Var("x")) || s.Has(Var("z")) {
		t.Error("Has wrong")
	}
	in := s.Intersect(o)
	if len(in) != 1 || !in.Has(Var("y")) {
		t.Errorf("Intersect wrong: %v", in)
	}
	diff := s.Minus(o)
	if len(diff) != 1 || !diff.Has(Var("x")) {
		t.Errorf("Minus wrong: %v", diff)
	}
	if s.ContainsAll(o) {
		t.Error("ContainsAll wrong")
	}
	if !s.ContainsAll(NewTermSet(Var("x"))) {
		t.Error("ContainsAll subset wrong")
	}
	sorted := NewTermSet(Var("b"), Const("z"), Var("a")).Sorted()
	if sorted[0] != Const("z") || sorted[1] != Var("a") || sorted[2] != Var("b") {
		t.Errorf("Sorted order wrong: %v", sorted)
	}
}

func TestAtomBasics(t *testing.T) {
	a := NewAtom("R", Var("x"), Const("c"))
	if a.Arity() != 2 || a.IsGround() {
		t.Error("arity/ground wrong")
	}
	if a.String() != "R(x,c)" {
		t.Errorf("rendering: %q", a.String())
	}
	ann := Atom{Relation: "R", Annotation: []Term{Var("u")}, Args: []Term{Var("x")}}
	if ann.String() != "R[u](x)" {
		t.Errorf("annotated rendering: %q", ann.String())
	}
	if !ann.AnnVars().Has(Var("u")) || ann.Vars().Has(Var("u")) {
		t.Error("annotation variables must be separate from argument variables")
	}
	if ann.Key() == a.Key() {
		t.Error("annotated and plain R must have distinct keys")
	}
	b := a.Clone()
	b.Args[0] = Var("y")
	if a.Args[0] != Var("x") {
		t.Error("Clone must deep copy")
	}
	if !a.Equal(NewAtom("R", Var("x"), Const("c"))) || a.Equal(NewAtom("R", Var("x"), Const("d"))) {
		t.Error("Equal wrong")
	}
}

func TestRuleVarSets(t *testing.T) {
	// hasTopic(x,z), hasAuthor(x,u) -> exists w. P(z,w)
	r := NewRule(
		[]Atom{NewAtom("hasTopic", Var("x"), Var("z")), NewAtom("hasAuthor", Var("x"), Var("u"))},
		[]Term{Var("w")},
		NewAtom("P", Var("z"), Var("w")),
	)
	uv := r.UVars()
	if len(uv) != 3 || !uv.Has(Var("x")) || !uv.Has(Var("z")) || !uv.Has(Var("u")) {
		t.Errorf("uvars wrong: %v", uv)
	}
	fv := r.FVars()
	if len(fv) != 1 || !fv.Has(Var("z")) {
		t.Errorf("fvars wrong: %v", fv)
	}
	if r.IsDatalog() {
		t.Error("rule with exists must not be Datalog")
	}
	if err := r.CheckSafe(); err != nil {
		t.Errorf("safe rule rejected: %v", err)
	}
}

func TestRuleSafety(t *testing.T) {
	bad := NewRule([]Atom{NewAtom("R", Var("x"))}, nil, NewAtom("P", Var("y")))
	if err := bad.CheckSafe(); err == nil {
		t.Error("unsafe frontier variable must be rejected")
	}
	badNeg := &Rule{
		Body: []Literal{Neg(NewAtom("R", Var("x")))},
		Head: []Atom{NewAtom("P", Var("x"))},
	}
	if err := badNeg.CheckSafe(); err == nil {
		t.Error("negated-only variable must be rejected")
	}
	okNeg := &Rule{
		Body: []Literal{Pos(NewAtom("S", Var("x"))), Neg(NewAtom("R", Var("x")))},
		Head: []Atom{NewAtom("P", Var("x"))},
	}
	if err := okNeg.CheckSafe(); err != nil {
		t.Errorf("safe negation rejected: %v", err)
	}
	evInBody := NewRule([]Atom{NewAtom("R", Var("y"))}, []Term{Var("y")}, NewAtom("P", Var("y")))
	if err := evInBody.CheckSafe(); err == nil {
		t.Error("existential variable in body must be rejected")
	}
}

func TestTheorySignature(t *testing.T) {
	th := NewTheory(
		NewRule([]Atom{NewAtom("R", Var("x"), Var("y"))}, nil, NewAtom("P", Var("x"))),
		NewRule([]Atom{NewAtom("P", Var("x"))}, nil, NewAtom("R", Var("x"), Var("x"))),
	)
	sig, err := th.Signature()
	if err != nil {
		t.Fatal(err)
	}
	if len(sig) != 2 {
		t.Errorf("signature size: %d", len(sig))
	}
	if th.MaxArity() != 2 {
		t.Errorf("max arity: %d", th.MaxArity())
	}
	bad := NewTheory(
		NewRule([]Atom{NewAtom("R", Var("x"))}, nil, NewAtom("R", Var("x"), Var("x"))),
	)
	if _, err := bad.Signature(); err == nil {
		t.Error("inconsistent arity must be rejected")
	}
}

func TestFreshNames(t *testing.T) {
	th := NewTheory(NewRule([]Atom{NewAtom("Aux_1", Var("x"))}, nil, NewAtom("P", Var("x"))))
	n := th.FreshRelation("Aux")
	if n == "Aux_1" {
		t.Error("fresh relation clashed with existing name")
	}
	v := FreshVar("x", NewTermSet(Var("x1"), Var("x2")))
	if v == Var("x1") || v == Var("x2") {
		t.Error("fresh variable clashed")
	}
}

func TestSubstitution(t *testing.T) {
	s := Subst{Var("x"): Const("a")}
	a := s.ApplyAtom(NewAtom("R", Var("x"), Var("y")))
	if !a.Equal(NewAtom("R", Const("a"), Var("y"))) {
		t.Errorf("ApplyAtom wrong: %v", a)
	}
	t2 := Subst{Var("y"): Const("b")}
	c := s.Compose(t2)
	if c.Apply(Var("x")) != Const("a") || c.Apply(Var("y")) != Const("b") {
		t.Errorf("Compose wrong: %v", c)
	}
	// Composition applies t to the range of s.
	s3 := Subst{Var("x"): Var("y")}
	c3 := s3.Compose(t2)
	if c3.Apply(Var("x")) != Const("b") {
		t.Errorf("Compose must apply second subst to range: %v", c3)
	}
}

func TestCanonicalKeyRenaming(t *testing.T) {
	r1 := NewRule(
		[]Atom{NewAtom("R", Var("x"), Var("y")), NewAtom("R", Var("y"), Var("z"))},
		nil, NewAtom("P", Var("x"), Var("z")),
	)
	r2 := NewRule(
		[]Atom{NewAtom("R", Var("b"), Var("c")), NewAtom("R", Var("a"), Var("b"))},
		nil, NewAtom("P", Var("a"), Var("c")),
	)
	if CanonicalKey(r1) != CanonicalKey(r2) {
		t.Errorf("renamed/reordered rules must share a key:\n%s\n%s", CanonicalKey(r1), CanonicalKey(r2))
	}
	r3 := NewRule(
		[]Atom{NewAtom("R", Var("x"), Var("y")), NewAtom("R", Var("z"), Var("y"))},
		nil, NewAtom("P", Var("x"), Var("z")),
	)
	if CanonicalKey(r1) == CanonicalKey(r3) {
		t.Error("structurally different rules must have different keys")
	}
}

func TestCanonicalKeyExistential(t *testing.T) {
	r1 := NewRule([]Atom{NewAtom("A", Var("x"))}, []Term{Var("y")}, NewAtom("R", Var("x"), Var("y")))
	r2 := NewRule([]Atom{NewAtom("A", Var("u"))}, []Term{Var("w")}, NewAtom("R", Var("u"), Var("w")))
	if CanonicalKey(r1) != CanonicalKey(r2) {
		t.Error("existential rules equal up to renaming must share a key")
	}
	r3 := NewRule([]Atom{NewAtom("A", Var("x"))}, nil, NewAtom("R", Var("x"), Var("x")))
	if CanonicalKey(r1) == CanonicalKey(r3) {
		t.Error("distinct head shapes must differ")
	}
}

func TestCanonicalKeyNegation(t *testing.T) {
	r1 := &Rule{
		Body: []Literal{Pos(NewAtom("S", Var("x"))), Neg(NewAtom("R", Var("x")))},
		Head: []Atom{NewAtom("P", Var("x"))},
	}
	r2 := &Rule{
		Body: []Literal{Pos(NewAtom("S", Var("x"))), Pos(NewAtom("R", Var("x")))},
		Head: []Atom{NewAtom("P", Var("x"))},
	}
	if CanonicalKey(r1) == CanonicalKey(r2) {
		t.Error("negation must be part of the canonical key")
	}
}

// Property: the canonical key is invariant under random variable renaming
// and random body reordering.
func TestCanonicalKeyInvariantProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rng.Intn(1000)
		_ = r
		rule := randomRule(rng)
		key := CanonicalKey(rule)
		perm := rng.Perm(len(rule.Body))
		shuffled := rule.Clone()
		for i, p := range perm {
			shuffled.Body[i] = rule.Body[p]
		}
		// Rename every variable v -> v'.
		ren := Subst{}
		for v := range shuffled.UVars() {
			ren[v] = Var(v.Name + "_r")
		}
		for _, v := range shuffled.Exist {
			ren[v] = Var(v.Name + "_r")
		}
		renamed := ren.ApplyRule(shuffled)
		return CanonicalKey(renamed) == key
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func randomRule(rng *rand.Rand) *Rule {
	nvars := 2 + rng.Intn(3)
	vars := make([]Term, nvars)
	for i := range vars {
		vars[i] = Var(string(rune('u' + i)))
	}
	natoms := 1 + rng.Intn(4)
	body := make([]Atom, natoms)
	rels := []string{"R", "S", "T"}
	for i := range body {
		rel := rels[rng.Intn(len(rels))]
		body[i] = NewAtom(rel, vars[rng.Intn(nvars)], vars[rng.Intn(nvars)])
	}
	head := NewAtom("P", body[0].Args[0])
	return NewRule(body, nil, head)
}

func TestRuleString(t *testing.T) {
	r := NewRule(
		[]Atom{NewAtom("Publication", Var("x"))},
		[]Term{Var("k1"), Var("k2")},
		NewAtom("Keywords", Var("x"), Var("k1"), Var("k2")),
	)
	want := "Publication(x) -> exists k1,k2. Keywords(x,k1,k2)"
	if r.String() != want {
		t.Errorf("String: got %q want %q", r.String(), want)
	}
}

func TestTheoryCheckSafeACDom(t *testing.T) {
	th := NewTheory(NewRule([]Atom{NewAtom("R", Var("x"))}, nil, NewAtom(ACDom, Var("x"))))
	if err := th.CheckSafe(); err == nil {
		t.Error("ACDom in head must be rejected")
	}
}

func TestAtomHelpers(t *testing.T) {
	a := NewAtom("R", Var("x"), Const("c"))
	b := NewAtom("S", Var("y"))
	if s := AtomsString([]Atom{a, b}); s != "R(x,c), S(y)" {
		t.Errorf("AtomsString: %q", s)
	}
	ts := TermsOf([]Atom{a, b})
	if len(ts) != 3 {
		t.Errorf("TermsOf: %v", ts)
	}
	av := AllVarsOf([]Atom{
		{Relation: "R", Annotation: []Term{Var("u")}, Args: []Term{Var("x")}},
	})
	if len(av) != 2 {
		t.Errorf("AllVarsOf: %v", av)
	}
	if !ContainsAtom([]Atom{a, b}, NewAtom("S", Var("y"))) {
		t.Error("ContainsAtom must find S(y)")
	}
	if ContainsAtom([]Atom{a}, b) {
		t.Error("ContainsAtom must not find missing atom")
	}
	if terms := a.Terms(); len(terms) != 2 {
		t.Errorf("Terms: %v", terms)
	}
	ann := Atom{Relation: "R", Annotation: []Term{Var("u")}, Args: []Term{Const("a")}}
	if ann.IsGround() {
		t.Error("variable annotation must not be ground")
	}
}

func TestRuleHelpers(t *testing.T) {
	f := Fact(NewAtom("R", Const("c")))
	if len(f.Body) != 0 || !f.Head[0].IsGround() {
		t.Errorf("Fact: %v", f)
	}
	r := &Rule{
		Body: []Literal{Pos(NewAtom("A", Var("x"))), Neg(NewAtom("B", Var("x")))},
		Head: []Atom{NewAtom("P", Var("x"))},
	}
	if len(r.PositiveBody()) != 1 || r.PositiveBody()[0].Relation != "A" {
		t.Errorf("PositiveBody: %v", r.PositiveBody())
	}
	if len(r.NegativeBody()) != 1 || r.NegativeBody()[0].Relation != "B" {
		t.Errorf("NegativeBody: %v", r.NegativeBody())
	}
	if !r.HasNegation() {
		t.Error("HasNegation")
	}
	if len(r.AllAtoms()) != 3 {
		t.Errorf("AllAtoms: %v", r.AllAtoms())
	}
}

// TestCanonicalKeyInjective covers names that look like the key's own
// syntax: a constant spelled like a numbered variable, names holding the
// argument and atom separators, NUL bytes, and a constant spelled like a
// null. Non-isomorphic pairs must get distinct keys; renamed and
// reordered copies must keep equal ones.
func TestCanonicalKeyInjective(t *testing.T) {
	x, y := Var("X"), Var("Y")
	rule := func(head Atom, body ...Atom) *Rule { return NewRule(body, nil, head) }
	distinct := []struct {
		name string
		a, b *Rule
	}{
		{"?0", rule(NewAtom("S", x), NewAtom("P", x), NewAtom("R", x, x)),
			rule(NewAtom("S", x), NewAtom("P", x), NewAtom("R", x, Const("?0")))},
		{"a, b", rule(NewAtom("S", x), NewAtom("P", x, Const("a, b"))),
			rule(NewAtom("S", x), NewAtom("P", x, Const("a"), Const(" b")))},
		{"a,b", rule(NewAtom("S"), NewAtom("P", Const("a,b"))),
			rule(NewAtom("S"), NewAtom("P", Const("a"), Const("b")))},
		{" & ", rule(NewAtom("S"), NewAtom("A", Const("x) & 0B(y"))),
			rule(NewAtom("S"), NewAtom("A", Const("x")), NewAtom("B", Const("y")))},
		{"NUL", rule(NewAtom("S", x), NewAtom("P", x, Const("a\x00b"))),
			rule(NewAtom("S", x), NewAtom("P", x, Const("a\x00c")))},
		{"NUL relation", rule(NewAtom("S", x), NewAtom("P\x00(", x)),
			rule(NewAtom("S", x), NewAtom("P\x00)", x))},
		{"null vs constant", rule(NewAtom("S", x), NewAtom("P", x, NewNull("n"))),
			rule(NewAtom("S", x), NewAtom("P", x, Const("_:n")))},
	}
	for _, c := range distinct {
		if CanonicalKey(c.a) == CanonicalKey(c.b) {
			t.Errorf("%s: %v and %v share a key", c.name, c.a, c.b)
		}
	}
	// Renamed and reordered copies over the same odd names stay equal.
	odd := []Term{Const("?0"), Const("a, b"), Const(" & "), Const("a\x00b"), NewNull("?1")}
	r1 := rule(NewAtom("S", x, odd[4]),
		NewAtom("P", x, odd[0]), NewAtom("R", x, y, odd[1]), NewAtom("R", y, x, odd[2]), NewAtom("Q\x00", y, odd[3]))
	r2 := rule(NewAtom("S", Var("b"), odd[4]),
		NewAtom("Q\x00", Var("a"), odd[3]), NewAtom("R", Var("a"), Var("b"), odd[2]), NewAtom("R", Var("b"), Var("a"), odd[1]), NewAtom("P", Var("b"), odd[0]))
	if CanonicalKey(r1) != CanonicalKey(r2) {
		t.Errorf("renamed copy changed the key:\n%q\n%q", CanonicalKey(r1), CanonicalKey(r2))
	}
}

func TestTheoryStringAndClone(t *testing.T) {
	th := NewTheory(NewRule([]Atom{NewAtom("A", Var("x"))}, nil, NewAtom("B", Var("x"))))
	if th.String() == "" {
		t.Error("String must render")
	}
	c := th.Clone()
	c.Rules[0].Head[0].Relation = "Z"
	if th.Rules[0].Head[0].Relation != "B" {
		t.Error("Clone must deep copy rules")
	}
	if th.HasNegation() {
		t.Error("no negation present")
	}
}
