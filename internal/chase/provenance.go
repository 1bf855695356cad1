package chase

import (
	"fmt"
	"strings"

	"guardedrules/internal/budget"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
)

// Derivation records why the chase added an atom: the rule that fired and
// the instantiated premises of its body.
type Derivation struct {
	RuleLabel string
	Premises  []core.Atom
}

// Provenance maps derived atoms (by their rendering) to their first
// derivation. Input facts have no entry.
type Provenance map[string]Derivation

// RunWithProvenance chases like Run while recording, for every derived
// atom, the rule and premises that produced it first.
func RunWithProvenance(th *core.Theory, d0 *database.Database, opts Options) (*Result, Provenance, error) {
	return runWithProvenance(run, th, d0, opts)
}

func runWithProvenance(rf runFn, th *core.Theory, d0 *database.Database, opts Options) (*Result, Provenance, error) {
	prov := make(Provenance)
	res, err := rf(th, d0, opts, func(r *core.Rule, sub core.Subst, atom core.Atom) {
		key := atom.String()
		if _, ok := prov[key]; ok {
			return
		}
		var premises []core.Atom
		for _, l := range r.Body {
			if !l.Negated {
				premises = append(premises, sub.ApplyAtom(l.Atom))
			}
		}
		prov[key] = Derivation{RuleLabel: r.Label, Premises: premises}
	})
	if err != nil {
		if budget.IsBudget(err) && res != nil {
			// Provenance of the partial run is complete for every atom it
			// derived; return it alongside the typed error.
			return res, prov, err
		}
		return nil, nil, err
	}
	return res, prov, nil
}

// ProofNode is a node of an explanation tree.
type ProofNode struct {
	Atom     core.Atom
	Rule     string // empty for input facts
	Children []*ProofNode
}

// Explain builds the proof tree of a derived atom: derived premises
// recurse, input facts become leaves. It returns nil when the atom was
// neither derived nor present in the input database.
func (p Provenance) Explain(atom core.Atom, input *database.Database) *ProofNode {
	return p.explain(atom, input, make(map[string]bool))
}

func (p Provenance) explain(atom core.Atom, input *database.Database, onPath map[string]bool) *ProofNode {
	key := atom.String()
	der, derived := p[key]
	if !derived {
		if input.Has(atom) {
			return &ProofNode{Atom: atom}
		}
		return nil
	}
	if onPath[key] {
		// The first derivation of an atom cannot depend on the atom itself
		// (the chase is inflationary), but guard against malformed input.
		return &ProofNode{Atom: atom, Rule: der.RuleLabel}
	}
	onPath[key] = true
	defer delete(onPath, key)
	node := &ProofNode{Atom: atom, Rule: der.RuleLabel}
	for _, prem := range der.Premises {
		child := p.explain(prem, input, onPath)
		if child == nil {
			child = &ProofNode{Atom: prem}
		}
		node.Children = append(node.Children, child)
	}
	return node
}

// String renders the proof tree, one atom per line, indented by depth.
func (n *ProofNode) String() string {
	var sb strings.Builder
	var rec func(node *ProofNode, depth int)
	rec = func(node *ProofNode, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		switch {
		case node.Rule == "" && len(node.Children) == 0:
			fmt.Fprintf(&sb, "%v  [input]\n", node.Atom)
		case node.Rule == "":
			fmt.Fprintf(&sb, "%v  [derived]\n", node.Atom)
		default:
			fmt.Fprintf(&sb, "%v  [rule %s]\n", node.Atom, node.Rule)
		}
		for _, c := range node.Children {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return sb.String()
}

// Size counts the nodes of the proof tree.
func (n *ProofNode) Size() int {
	s := 1
	for _, c := range n.Children {
		s += c.Size()
	}
	return s
}

// Depth returns the height of the proof tree (a single node has depth 0).
func (n *ProofNode) Depth() int {
	d := 0
	for _, c := range n.Children {
		if cd := c.Depth() + 1; cd > d {
			d = cd
		}
	}
	return d
}
