package capture

import (
	"fmt"

	"guardedrules/internal/budget"
	"guardedrules/internal/core"
	"guardedrules/internal/tm"
)

// AcceptRel is the 0-ary output relation of compiled machines: the query
// (Σ_M, AcceptRel) answers "does M accept w(D)?".
const AcceptRel = "Accepts"

// Options governs an ATM compilation run.
type Options struct {
	// Budget, when non-nil, governs the run: its context/deadline cancels
	// the compilation between rules, its MaxRules caps the compiled rules
	// (0 = unlimited; the compiled theory is polynomial in |δ| and the
	// tape alphabet, but large machines with many frame rules can still
	// explode), and exhaustion returns the rules compiled so far alongside
	// a typed *budget.Error.
	Budget *budget.T
}

// Compile translates an alternating Turing machine into a weakly guarded
// theory Σ_M over string databases of degree k (Theorem 4): for every
// string database D, Σ_M, D ⊨ Accepts() iff M accepts w(D).
//
// Configurations of M become labeled nulls invented by guarded existential
// rules; the tape is stored cell-wise in relations Tape_s(conf, ~pos) over
// the k-tuples of D's constants, and acceptance propagates backwards
// through the alternation via Acc/AccVia relations. All rules are weakly
// guarded: the configuration nulls are the only unsafe variables and each
// rule guards them with a single atom.
func Compile(m *tm.ATM, k int, alphabet []string) (*core.Theory, error) {
	return CompileOpts(m, k, alphabet, Options{})
}

// CompileOpts is Compile with an explicit resource budget. On budget
// exhaustion the returned theory holds the rules compiled so far (an
// incomplete machine encoding, returned for inspection only) together
// with a typed error satisfying errors.Is against the budget sentinels.
func CompileOpts(m *tm.ATM, k int, alphabet []string, opts Options) (*core.Theory, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	tk := budget.Start(opts.Budget)
	defer tk.Stop()
	c := &compiler{
		m: m, k: k, alphabet: alphabet, th: core.NewTheory(),
		tk:       tk,
		maxRules: budget.Cap(opts.Budget, func(b *budget.T) int { return b.MaxRules }, 0),
	}
	c.orderDatalog()
	c.initRules()
	c.transitionRules()
	c.acceptanceRules()
	if c.err != nil {
		return core.StampGenerated(c.th, "atm-compilation"), c.err
	}
	if err := c.th.CheckSafe(); err != nil {
		return nil, fmt.Errorf("capture: compiled theory unsafe: %w", err)
	}
	return core.StampGenerated(c.th, "atm-compilation"), nil
}

type compiler struct {
	m        *tm.ATM
	k        int
	alphabet []string
	th       *core.Theory
	nTrans   int
	maxRules int
	tk       *budget.Tracker
	err      error // first budget error; later adds become no-ops
}

// Relation names of the compiled theory.
func stRel(q string) string   { return "St_" + q }
func tapeRel(s string) string { return "Tape_" + s }
func stepRel(i int) string    { return fmt.Sprintf("Step_%d", i) }
func accViaRel(i int) string  { return fmt.Sprintf("AccVia_%d", i) }

const (
	headRel   = "HeadAt"
	isInitRel = "IsInit"
	accRel    = "Acc"
	ltRel     = "LtK"
	neqRel    = "NeqK"
)

// vars returns the k-tuple of variables X<p>_1..X<p>_k.
func (c *compiler) tupleVars(prefix string) []core.Term {
	out := make([]core.Term, c.k)
	for i := range out {
		out[i] = core.Var(fmt.Sprintf("%s%d", prefix, i+1))
	}
	return out
}

func atom(rel string, args ...[]core.Term) core.Atom {
	var flat []core.Term
	for _, a := range args {
		flat = append(flat, a...)
	}
	return core.Atom{Relation: rel, Args: flat}
}

// orderDatalog derives the strict order LtK and the disequality NeqK on
// k-tuples from the input successor relation. All variables are safe, so
// the rules are weakly guarded Datalog.
func (c *compiler) orderDatalog() {
	x, y, z := c.tupleVars("X"), c.tupleVars("Y"), c.tupleVars("Z")
	c.add(core.NewRule(
		[]core.Atom{atom(NextRel(c.k), x, y)}, nil, atom(ltRel, x, y)))
	c.add(core.NewRule(
		[]core.Atom{atom(ltRel, x, y), atom(NextRel(c.k), y, z)}, nil, atom(ltRel, x, z)))
	c.add(core.NewRule(
		[]core.Atom{atom(ltRel, x, y)}, nil, atom(neqRel, x, y)))
	c.add(core.NewRule(
		[]core.Atom{atom(ltRel, x, y)}, nil, atom(neqRel, y, x)))
}

// initRules creates the initial configuration at the first cell and copies
// the input word onto its tape.
func (c *compiler) initRules() {
	x := c.tupleVars("X")
	v := core.Var("V")
	c.add(&core.Rule{
		Body: []core.Literal{core.Pos(atom(FirstRel(c.k), x))},
		Head: []core.Atom{
			atom(isInitRel, []core.Term{v}),
			atom(stRel(c.m.Start), []core.Term{v}),
			atom(headRel, []core.Term{v}, x),
		},
		Exist: []core.Term{v},
	})
	for _, s := range c.alphabet {
		c.add(core.NewRule(
			[]core.Atom{atom(isInitRel, []core.Term{v}), atom(s, x)},
			nil,
			atom(tapeRel(s), []core.Term{v}, x)))
	}
}

// transitionEntry records one compiled transition alternative.
type transitionEntry struct {
	index  int
	state  string
	symbol string
	t      tm.Transition
}

// transitions enumerates the machine's δ with global indices.
func (c *compiler) transitions() []transitionEntry {
	var out []transitionEntry
	i := 0
	for _, q := range c.m.States() {
		for _, s := range c.tapeAlphabet() {
			for _, t := range c.m.Delta(q, s) {
				out = append(out, transitionEntry{i, q, s, t})
				i++
			}
		}
	}
	c.nTrans = i
	return out
}

// tapeAlphabet is the input alphabet plus every symbol written by the
// machine.
func (c *compiler) tapeAlphabet() []string {
	set := map[string]bool{}
	for _, s := range c.alphabet {
		set[s] = true
	}
	for _, s := range c.m.Symbols() {
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

// whenAtoms returns the order atoms expressing the position guard for head
// tuple x, together with the fresh neighbour tuples it introduces.
func (c *compiler) whenAtoms(w tm.When, x []core.Term) []core.Atom {
	xl, xr := c.tupleVars("XL"), c.tupleVars("XR")
	switch w {
	case tm.Any:
		return nil
	case tm.AtFirst:
		return []core.Atom{atom(FirstRel(c.k), x)}
	case tm.AtLast:
		return []core.Atom{atom(LastRel(c.k), x)}
	case tm.AtMid:
		return []core.Atom{atom(NextRel(c.k), xl, x), atom(NextRel(c.k), x, xr)}
	case tm.AtNotFirst:
		return []core.Atom{atom(NextRel(c.k), xl, x)}
	case tm.AtNotLast:
		return []core.Atom{atom(NextRel(c.k), x, xr)}
	default:
		return nil
	}
}

// transitionRules compiles every δ-alternative into a guarded existential
// rule creating the successor configuration, plus the frame rule copying
// the untouched tape cells.
func (c *compiler) transitionRules() {
	v, v2 := core.Var("V"), core.Var("V2")
	for _, e := range c.transitions() {
		x := c.tupleVars("X")
		body := []core.Atom{
			atom(stRel(e.state), []core.Term{v}),
			atom(headRel, []core.Term{v}, x),
			atom(tapeRel(e.symbol), []core.Term{v}, x),
		}
		body = append(body, c.whenAtoms(e.t.When, x)...)
		newHead := x
		switch e.t.Move {
		case tm.Right:
			x2 := c.tupleVars("XS")
			body = append(body, atom(NextRel(c.k), x, x2))
			newHead = x2
		case tm.Left:
			x2 := c.tupleVars("XS")
			body = append(body, atom(NextRel(c.k), x2, x))
			newHead = x2
		}
		head := []core.Atom{
			atom(stepRel(e.index), []core.Term{v, v2}),
			atom(stRel(e.t.Next), []core.Term{v2}),
			atom(headRel, []core.Term{v2}, newHead),
			atom(tapeRel(e.t.Write), []core.Term{v2}, x),
		}
		c.add(&core.Rule{
			Body:  posLits(body),
			Head:  head,
			Exist: []core.Term{v2},
			Label: fmt.Sprintf("trans_%d", e.index),
		})
		// Frame rule: cells other than the head keep their symbol.
		y := c.tupleVars("Y")
		for _, s := range c.tapeAlphabet() {
			c.add(core.NewRule([]core.Atom{
				atom(stepRel(e.index), []core.Term{v, v2}),
				atom(tapeRel(s), []core.Term{v}, y),
				atom(headRel, []core.Term{v}, x),
				atom(neqRel, x, y),
			}, nil, atom(tapeRel(s), []core.Term{v2}, y)))
		}
	}
}

// acceptanceRules propagates acceptance backwards through the alternation.
func (c *compiler) acceptanceRules() {
	v, v2 := core.Var("V"), core.Var("V2")
	entries := c.transitions()
	// Accepting states accept outright.
	for q, mode := range c.m.Modes {
		if mode == tm.Accepting {
			c.add(core.NewRule(
				[]core.Atom{atom(stRel(q), []core.Term{v})}, nil,
				atom(accRel, []core.Term{v})))
		}
	}
	// AccVia_i(v): the i-th alternative was taken and its successor
	// accepts.
	for _, e := range entries {
		c.add(core.NewRule([]core.Atom{
			atom(stepRel(e.index), []core.Term{v, v2}),
			atom(accRel, []core.Term{v2}),
		}, nil, atom(accViaRel(e.index), []core.Term{v})))
	}
	// Existential states: one accepting alternative suffices.
	for _, e := range entries {
		if c.m.Modes[e.state] == tm.Existential {
			c.add(core.NewRule([]core.Atom{
				atom(accViaRel(e.index), []core.Term{v}),
			}, nil, atom(accRel, []core.Term{v})))
		}
	}
	// Universal states: per (state, symbol, position class), every
	// applicable alternative must accept.
	for _, q := range c.m.States() {
		if c.m.Modes[q] != tm.Universal {
			continue
		}
		for _, s := range c.tapeAlphabet() {
			for _, pc := range positionClasses {
				x := c.tupleVars("X")
				body := []core.Atom{
					atom(stRel(q), []core.Term{v}),
					atom(headRel, []core.Term{v}, x),
					atom(tapeRel(s), []core.Term{v}, x),
				}
				body = append(body, c.classAtoms(pc, x)...)
				for _, e := range entries {
					if e.state != q || e.symbol != s {
						continue
					}
					if pc.applicable(e.t) {
						body = append(body, atom(accViaRel(e.index), []core.Term{v}))
					}
				}
				c.add(core.NewRule(body, nil, atom(accRel, []core.Term{v})))
			}
		}
	}
	// Acceptance of the initial configuration answers the query.
	c.add(core.NewRule([]core.Atom{
		atom(isInitRel, []core.Term{v}),
		atom(accRel, []core.Term{v}),
	}, nil, core.NewAtom(AcceptRel)))
}

// positionClass distinguishes where the head can sit: the applicability of
// a transition (its When guard and its move) depends only on this class.
type positionClass struct {
	name        string
	first, last bool
}

var positionClasses = []positionClass{
	{"firstlast", true, true},
	{"firstonly", true, false},
	{"lastonly", false, true},
	{"mid", false, false},
}

// applicable mirrors tm.Applicable for a position class.
func (pc positionClass) applicable(t tm.Transition) bool {
	switch t.When {
	case tm.AtFirst:
		if !pc.first {
			return false
		}
	case tm.AtLast:
		if !pc.last {
			return false
		}
	case tm.AtMid:
		if pc.first || pc.last {
			return false
		}
	case tm.AtNotFirst:
		if pc.first {
			return false
		}
	case tm.AtNotLast:
		if pc.last {
			return false
		}
	}
	if t.Move == tm.Left && pc.first || t.Move == tm.Right && pc.last {
		return false
	}
	return true
}

// classAtoms expresses the position class positively via the order
// relations.
func (c *compiler) classAtoms(pc positionClass, x []core.Term) []core.Atom {
	var out []core.Atom
	if pc.first {
		out = append(out, atom(FirstRel(c.k), x))
	} else {
		out = append(out, atom(NextRel(c.k), c.tupleVars("XL"), x))
	}
	if pc.last {
		out = append(out, atom(LastRel(c.k), x))
	} else {
		out = append(out, atom(NextRel(c.k), x, c.tupleVars("XR")))
	}
	return out
}

func posLits(atoms []core.Atom) []core.Literal {
	out := make([]core.Literal, len(atoms))
	for i, a := range atoms {
		out[i] = core.Pos(a)
	}
	return out
}

func (c *compiler) add(r *core.Rule) {
	if c.err != nil {
		return // sticky: keep the partial theory at the point of exhaustion
	}
	// Per-rule checkpoint: cancellation, deadline and FailAt injection.
	if err := c.tk.Check(); err != nil {
		c.err = fmt.Errorf("capture: %w", err)
		return
	}
	if c.maxRules > 0 && len(c.th.Rules) >= c.maxRules {
		c.err = fmt.Errorf("capture: compilation exceeded %d rules: %w",
			c.maxRules, c.tk.Exhausted(budget.ErrRuleLimit))
		return
	}
	if r.Label == "" {
		r.Label = fmt.Sprintf("cmp_%d", len(c.th.Rules))
	}
	c.th.Add(r)
	c.tk.AddRules(1)
}
