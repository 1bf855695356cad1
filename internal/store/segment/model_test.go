package segment

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"guardedrules/internal/core"
	"guardedrules/internal/database"
)

// model is the reference for a fact store: a set of user facts plus a
// set of pinned constants. Its ACDom holds the pinned constants and the
// constants of its facts; nulls never enter it.
type model struct {
	facts  map[string]core.Atom
	pinned map[core.Term]bool
}

func (m model) clone() model {
	out := model{facts: map[string]core.Atom{}, pinned: map[core.Term]bool{}}
	for k, a := range m.facts {
		out.facts[k] = a
	}
	for c := range m.pinned {
		out.pinned[c] = true
	}
	return out
}

// apply adds or retracts a. Adding ACDom(c) pins c; retracting it
// unpins c, and the fact stays while another fact holds c.
func (m model) apply(add bool, a core.Atom) {
	switch {
	case a.Relation == core.ACDom && add:
		m.pinned[a.Args[0]] = true
	case a.Relation == core.ACDom:
		delete(m.pinned, a.Args[0])
	case add:
		m.facts[a.String()] = a
	default:
		delete(m.facts, a.String())
	}
}

// check compares d with m on the facts of universe and the terms.
func (m model) check(t *testing.T, where string, d *database.Database, universe []core.Atom, terms []core.Term) {
	t.Helper()
	var want, got []string
	for k := range m.facts {
		want = append(want, k)
	}
	for _, a := range d.UserFacts() {
		got = append(got, a.String())
	}
	sort.Strings(want)
	sort.Strings(got)
	if g, w := strings.Join(got, " "), strings.Join(want, " "); g != w {
		t.Fatalf("%s: user facts %s, want %s", where, g, w)
	}
	for _, a := range universe {
		if _, ok := m.facts[a.String()]; d.Has(a) != ok {
			t.Fatalf("%s: Has(%s) = %v, want %v", where, a, !ok, ok)
		}
	}
	dom := 0
	for _, c := range terms {
		support := 0
		for _, a := range m.facts {
			for _, u := range a.Args {
				if u == c && c.IsConst() {
					support++
				}
			}
		}
		in := c.IsConst() && (support > 0 || m.pinned[c])
		if in {
			dom++
		}
		if d.Has(core.NewAtom(core.ACDom, c)) != in || d.ACDomPinned(c) != m.pinned[c] || d.ACDomSupport(c) != support {
			t.Fatalf("%s: ACDom(%s) present %v pinned %v support %d, want %v %v %d", where, c,
				d.Has(core.NewAtom(core.ACDom, c)), d.ACDomPinned(c), d.ACDomSupport(c), in, m.pinned[c], support)
		}
	}
	if d.Len() != len(m.facts)+dom {
		t.Fatalf("%s: Len %d, want %d", where, d.Len(), len(m.facts)+dom)
	}
}

// TestStoreMatchesModel runs seeded random sequences of adds, retracts,
// explicit ACDom adds and retracts, nulls and re-adds through a
// Database and a segment store that follows it, committing after every
// op and now and then closing and reopening the store, and through a
// copy-on-write clone that takes writes of its own. Every side is
// checked against its model after every op.
func TestStoreMatchesModel(t *testing.T) {
	terms := []core.Term{core.Const("a"), core.Const("b"), core.Const("c"), core.NewNull("n1")}
	var universe []core.Atom
	for _, x := range terms {
		universe = append(universe, core.NewAtom("R", x))
		for _, y := range terms {
			universe = append(universe, core.NewAtom("E", x, y))
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		s := mustOpen(t, dir)
		d, m := database.New(), model{facts: map[string]core.Atom{}, pinned: map[core.Term]bool{}}
		var clone *database.Database
		var cm model
		for step := 0; step < 200; step++ {
			where := fmt.Sprintf("seed %d step %d", seed, step)
			switch k := rng.Intn(10); {
			case k == 8:
				clone, cm = d.Clone(), m.clone()
			case k == 9:
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				s = mustOpen(t, dir)
			default:
				a := universe[rng.Intn(len(universe))]
				if k >= 6 {
					a = core.NewAtom(core.ACDom, terms[rng.Intn(3)])
				}
				add := k%2 == 0
				if clone != nil && rng.Intn(3) == 0 {
					if add {
						clone.Add(a)
					} else {
						clone.Retract(a)
					}
					cm.apply(add, a)
					break
				}
				if add {
					d.Add(a)
					s.Add(a)
				} else {
					d.Retract(a)
					s.Retract(a)
				}
				m.apply(add, a)
				if _, err := s.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			m.check(t, where+" database", d, universe, terms)
			m.check(t, where+" segment store", s.Clone(), universe, terms)
			if clone != nil {
				cm.check(t, where+" clone", clone, universe, terms)
			}
		}
		s.Close()
	}
}
