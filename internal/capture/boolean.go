package capture

import (
	"fmt"
	"strings"

	"guardedrules/internal/budget"
	"guardedrules/internal/chase"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/stratified"
	"guardedrules/internal/tm"
)

// BoolRel is the 0-ary output relation of Theorem 5 theories.
const BoolRel = "QBool"

// ChrName names the characteristic-function symbol for a bit vector over
// the unary signature: ChrName("10") is the symbol of domain elements that
// are in the first relation and not in the second.
func ChrName(bits string) string { return "Chr_" + bits }

// ChrAlphabet returns the alphabet of characteristic symbols for a unary
// signature of m relations, in binary counting order.
func ChrAlphabet(m int) []string {
	n := 1 << m
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		bits := make([]byte, m)
		for j := 0; j < m; j++ {
			if i&(1<<(m-1-j)) != 0 {
				bits[j] = '1'
			} else {
				bits[j] = '0'
			}
		}
		out = append(out, ChrName(string(bits)))
	}
	return out
}

// BooleanQuery builds the Theorem 5 theory for a Boolean query over a
// unary signature: a stratified weakly guarded theory Σ with 0-ary output
// BoolRel such that Σ, D ⊨ QBool() iff the machine accepts the
// characteristic string C(D) of the database under some (equivalently,
// any, for isomorphism-closed queries) total order of its constants.
//
// The theory is Σsucc (generating candidate orders) ∪ the lexicographic
// tuple order ∪ Σcode (the characteristic function, via negation on the
// input relations) ∪ the order-indexed machine simulation. The machine's
// alphabet must be ChrAlphabet(len(rels)).
func BooleanQuery(m *tm.ATM, rels []string) (*core.Theory, error) {
	return BooleanQueryK(m, rels, 1)
}

// BooleanQueryK is BooleanQuery for a signature of relations that all
// have arity k: the characteristic string enumerates the k-tuples of
// constants in lexicographic order (so the encoded string has d^k cells),
// exactly the coding C of Definition 21. With k = 2 and one binary
// relation E this expresses, e.g., "the graph has an even number of
// edges".
func BooleanQueryK(m *tm.ATM, rels []string, k int) (*core.Theory, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(rels) == 0 {
		return nil, fmt.Errorf("capture: empty signature")
	}
	if k < 1 {
		return nil, fmt.Errorf("capture: arity k must be ≥ 1")
	}
	th := SuccProgram()
	th.Add(LexOrderProgram(k)...)
	addCode(th, rels, k)
	oc := &orderedCompiler{m: m, k: k, alphabet: ChrAlphabet(len(rels)), th: th}
	oc.compile()
	if err := th.CheckSafe(); err != nil {
		return nil, fmt.Errorf("capture: Theorem 5 theory unsafe: %w", err)
	}
	return core.StampGenerated(th, "boolean-query-compilation"), nil
}

// addCode appends Σcode: the characteristic symbol of every k-tuple of
// constants under every good ordering, via semipositive negation on the
// input relations (Section 8's sketch).
func addCode(th *core.Theory, rels []string, k int) {
	u := core.Var("U")
	xs := make([]core.Term, k)
	for i := range xs {
		xs[i] = core.Var(fmt.Sprintf("X%d", i+1))
	}
	n := 1 << len(rels)
	for i := 0; i < n; i++ {
		body := []core.Literal{core.Pos(core.NewAtom("OGood", u))}
		for _, x := range xs {
			body = append(body, core.Pos(core.NewAtom(core.ACDom, x)))
		}
		bits := make([]byte, len(rels))
		for j, r := range rels {
			if i&(1<<(len(rels)-1-j)) != 0 {
				bits[j] = '1'
				body = append(body, core.Pos(core.NewAtom(r, xs...)))
			} else {
				bits[j] = '0'
				body = append(body, core.Neg(core.NewAtom(r, xs...)))
			}
		}
		th.Add(&core.Rule{
			Body:  body,
			Head:  []core.Atom{core.NewAtom(ChrName(string(bits)), append(append([]core.Term(nil), xs...), u)...)},
			Label: "code_" + string(bits),
		})
	}
}

// orderedCompiler is the order-indexed variant of the Theorem 4 compiler:
// every machine relation carries the ordering null u as an extra argument,
// the order relations are OMin/OSucc/OMax of Σsucc gated by OGood, and the
// link relation COfOrd(v,u) guards the configuration and ordering nulls
// together.
type orderedCompiler struct {
	m        *tm.ATM
	k        int
	alphabet []string
	th       *core.Theory
	nTrans   int
}

func cSt(q string) string   { return "CSt_" + q }
func cTape(s string) string { return "CTape_" + s }
func cStep(i int) string    { return fmt.Sprintf("CStep_%d", i) }
func cAccVia(i int) string  { return fmt.Sprintf("CAccVia_%d", i) }

const (
	cHead   = "CHead"
	cIsInit = "CIsInit"
	cAcc    = "CAcc"
	cOfOrd  = "COfOrd"
)

// tup returns the k-tuple of variables P1..Pk for a prefix.
func (oc *orderedCompiler) tup(prefix string) []core.Term {
	out := make([]core.Term, oc.k)
	for i := range out {
		out[i] = core.Var(fmt.Sprintf("%s%d", prefix, i+1))
	}
	return out
}

func catTerms(parts ...[]core.Term) []core.Term {
	var out []core.Term
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func (oc *orderedCompiler) compile() {
	v, v2, u := core.Var("V"), core.Var("V2"), core.Var("U")
	uu := []core.Term{u}
	x, xl, xr, y := oc.tup("X"), oc.tup("XL"), oc.tup("XR"), oc.tup("Y")
	k := oc.k

	add := func(body []core.Atom, exist []core.Term, head ...core.Atom) {
		r := core.NewRule(body, exist, head...)
		r.Label = fmt.Sprintf("tm5_%d", len(oc.th.Rules))
		oc.th.Add(r)
	}

	// Initial configuration per good ordering, head at the first cell.
	add([]core.Atom{
		core.NewAtom("OGood", u),
		core.NewAtom(lexFirst(k), catTerms(x, uu)...),
	}, []core.Term{v},
		core.NewAtom(cIsInit, v),
		core.NewAtom(cSt(oc.m.Start), v),
		core.NewAtom(cHead, catTerms([]core.Term{v}, x)...),
		core.NewAtom(cOfOrd, v, u),
	)
	// Input copy.
	for _, s := range oc.alphabet {
		add([]core.Atom{
			core.NewAtom(cIsInit, v),
			core.NewAtom(cOfOrd, v, u),
			core.NewAtom(s, catTerms(x, uu)...),
		}, nil, core.NewAtom(cTape(s), catTerms([]core.Term{v}, x)...))
	}

	whenAtoms := func(w tm.When) []core.Atom {
		switch w {
		case tm.AtFirst:
			return []core.Atom{core.NewAtom(lexFirst(k), catTerms(x, uu)...)}
		case tm.AtLast:
			return []core.Atom{core.NewAtom(lexLast(k), catTerms(x, uu)...)}
		case tm.AtMid:
			return []core.Atom{
				core.NewAtom(lexNext(k), catTerms(xl, x, uu)...),
				core.NewAtom(lexNext(k), catTerms(x, xr, uu)...),
			}
		case tm.AtNotFirst:
			return []core.Atom{core.NewAtom(lexNext(k), catTerms(xl, x, uu)...)}
		case tm.AtNotLast:
			return []core.Atom{core.NewAtom(lexNext(k), catTerms(x, xr, uu)...)}
		default:
			return nil
		}
	}

	// Transitions.
	entries := oc.transitions()
	for _, e := range entries {
		body := []core.Atom{
			core.NewAtom(cSt(e.state), v),
			core.NewAtom(cHead, catTerms([]core.Term{v}, x)...),
			core.NewAtom(cTape(e.symbol), catTerms([]core.Term{v}, x)...),
			core.NewAtom(cOfOrd, v, u),
		}
		body = append(body, whenAtoms(e.t.When)...)
		newHead := x
		switch e.t.Move {
		case tm.Right:
			xs := oc.tup("XS")
			body = append(body, core.NewAtom(lexNext(k), catTerms(x, xs, uu)...))
			newHead = xs
		case tm.Left:
			xs := oc.tup("XS")
			body = append(body, core.NewAtom(lexNext(k), catTerms(xs, x, uu)...))
			newHead = xs
		}
		add(body, []core.Term{v2},
			core.NewAtom(cStep(e.index), v, v2, u),
			core.NewAtom(cSt(e.t.Next), v2),
			core.NewAtom(cHead, catTerms([]core.Term{v2}, newHead)...),
			core.NewAtom(cTape(e.t.Write), catTerms([]core.Term{v2}, x)...),
			core.NewAtom(cOfOrd, v2, u),
		)
		// Frame rule.
		for _, s := range oc.tapeAlphabet() {
			add([]core.Atom{
				core.NewAtom(cStep(e.index), v, v2, u),
				core.NewAtom(cTape(s), catTerms([]core.Term{v}, y)...),
				core.NewAtom(cHead, catTerms([]core.Term{v}, x)...),
				core.NewAtom(lexNeq(k), catTerms(x, y, uu)...),
			}, nil, core.NewAtom(cTape(s), catTerms([]core.Term{v2}, y)...))
		}
	}

	// Acceptance.
	for q, mode := range oc.m.Modes {
		if mode == tm.Accepting {
			add([]core.Atom{core.NewAtom(cSt(q), v)}, nil, core.NewAtom(cAcc, v))
		}
	}
	for _, e := range entries {
		add([]core.Atom{
			core.NewAtom(cStep(e.index), v, v2, u),
			core.NewAtom(cAcc, v2),
		}, nil, core.NewAtom(cAccVia(e.index), v))
		if oc.m.Modes[e.state] == tm.Existential {
			add([]core.Atom{core.NewAtom(cAccVia(e.index), v)}, nil, core.NewAtom(cAcc, v))
		}
	}
	for _, q := range oc.m.States() {
		if oc.m.Modes[q] != tm.Universal {
			continue
		}
		for _, s := range oc.tapeAlphabet() {
			for _, pc := range positionClasses {
				body := []core.Atom{
					core.NewAtom(cSt(q), v),
					core.NewAtom(cHead, catTerms([]core.Term{v}, x)...),
					core.NewAtom(cTape(s), catTerms([]core.Term{v}, x)...),
					core.NewAtom(cOfOrd, v, u),
				}
				if pc.first {
					body = append(body, core.NewAtom(lexFirst(k), catTerms(x, uu)...))
				} else {
					body = append(body, core.NewAtom(lexNext(k), catTerms(xl, x, uu)...))
				}
				if pc.last {
					body = append(body, core.NewAtom(lexLast(k), catTerms(x, uu)...))
				} else {
					body = append(body, core.NewAtom(lexNext(k), catTerms(x, xr, uu)...))
				}
				for _, e := range entries {
					if e.state == q && e.symbol == s && pc.applicable(e.t) {
						body = append(body, core.NewAtom(cAccVia(e.index), v))
					}
				}
				add(body, nil, core.NewAtom(cAcc, v))
			}
		}
	}
	add([]core.Atom{
		core.NewAtom(cIsInit, v),
		core.NewAtom(cAcc, v),
	}, nil, core.NewAtom(BoolRel))
}

func (oc *orderedCompiler) transitions() []transitionEntry {
	var out []transitionEntry
	i := 0
	for _, q := range oc.m.States() {
		for _, s := range oc.tapeAlphabet() {
			for _, t := range oc.m.Delta(q, s) {
				out = append(out, transitionEntry{i, q, s, t})
				i++
			}
		}
	}
	oc.nTrans = i
	return out
}

func (oc *orderedCompiler) tapeAlphabet() []string {
	set := map[string]bool{}
	for _, s := range oc.alphabet {
		set[s] = true
	}
	for _, s := range oc.m.Symbols() {
		set[s] = true
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// EvalBoolean evaluates a Theorem 5 theory on a database: the ordering
// stratum is chased to depth d+1 (orders of the d constants), the machine
// strata to depth d+steps+4.
func EvalBoolean(th *core.Theory, db *database.Database, steps int) (bool, *stratified.Result, error) {
	d := len(db.Constants())
	res, err := stratified.Eval(th, db, stratified.Options{
		StratumChase: func(i int, rules []*core.Rule) chase.Options {
			depth := d + steps + 4
			for _, r := range rules {
				for _, h := range r.Head {
					if strings.HasPrefix(h.Relation, "OSucc4") {
						depth = d + 1
					}
				}
			}
			return chase.Options{Variant: chase.Restricted, MaxDepth: depth, Budget: &budget.T{MaxFacts: 2_000_000}}
		},
	})
	if err != nil {
		return false, nil, err
	}
	return res.Entails(core.NewAtom(BoolRel)), res, nil
}
