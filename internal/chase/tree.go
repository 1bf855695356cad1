package chase

import (
	"fmt"

	"guardedrules/internal/budget"
	"guardedrules/internal/classify"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
)

// Node is a node of a chase tree: a set of atoms (Definition 6).
type Node struct {
	ID     int
	Parent *Node
	Atoms  []core.Atom
	terms  core.TermSet
}

// Terms returns terms(d) for the node.
func (n *Node) Terms() core.TermSet { return n.terms }

// Tree is a chase tree of a database w.r.t. a normal frontier-guarded
// theory (Definition 6). The root stores the atoms over the input
// constants; non-root nodes store atoms with labeled nulls.
type Tree struct {
	Root  *Node
	Nodes []*Node
}

// RunTree chases d0 with a normal frontier-guarded theory th while
// building the chase tree. The theory must have single-atom heads; rules
// with constants must be of the form → R(c) (normal form, Definition 4).
func RunTree(th *core.Theory, d0 *database.Database, opts Options) (*Tree, *Result, error) {
	return runTree(run, th, d0, opts)
}

func runTree(rf runFn, th *core.Theory, d0 *database.Database, opts Options) (*Tree, *Result, error) {
	for _, r := range th.Rules {
		if len(r.Head) != 1 {
			return nil, nil, fmt.Errorf("chase tree: rule %s does not have a singleton head (theory not normal)", r.Label)
		}
		if !classify.IsFrontierGuarded(r) {
			return nil, nil, fmt.Errorf("chase tree: rule %s is not frontier-guarded", r.Label)
		}
	}
	// Root d0 = D ∪ {R(c) | → R(c) ∈ Σ}.
	rootAtoms := append([]core.Atom(nil), d0.UserFacts()...)
	for _, r := range th.Rules {
		if len(r.Body) == 0 && r.Head[0].IsGround() {
			rootAtoms = append(rootAtoms, r.Head[0])
		}
	}
	root := &Node{ID: 0, Atoms: rootAtoms, terms: core.TermsOf(rootAtoms)}
	tree := &Tree{Root: root, Nodes: []*Node{root}}

	var hookErr error
	hook := func(r *core.Rule, sub core.Subst, atom core.Atom) {
		if hookErr != nil {
			return
		}
		if len(r.Body) == 0 {
			// Constant rules → R(c) are already part of the root.
			root.addIfMissing(atom)
			return
		}
		ts := atom.Terms()
		// (C1): some node already contains all terms of the new atom.
		if n := tree.minimalNode(ts); n != nil {
			n.addIfMissing(atom)
			return
		}
		// (C2): new node below the minimal node for the frontier image.
		img := make(core.TermSet)
		for v := range r.FVars() {
			img.Add(sub.Apply(v))
		}
		parent := tree.minimalNode(img)
		if parent == nil {
			hookErr = fmt.Errorf("chase tree: no node contains frontier image %v of %v", img.Sorted(), atom)
			return
		}
		node := &Node{ID: len(tree.Nodes), Parent: parent, Atoms: []core.Atom{atom}, terms: atom.Terms()}
		tree.Nodes = append(tree.Nodes, node)
	}
	res, err := rf(th, d0, opts, hook)
	if err != nil {
		if budget.IsBudget(err) && res != nil && hookErr == nil {
			// The partial run still induces a well-formed prefix of the
			// chase tree; surface it alongside the typed error.
			return tree, res, err
		}
		return nil, nil, err
	}
	if hookErr != nil {
		return nil, nil, hookErr
	}
	return tree, res, nil
}

func (n *Node) addIfMissing(a core.Atom) {
	if !core.ContainsAtom(n.Atoms, a) {
		n.Atoms = append(n.Atoms, a)
		for t := range a.Terms() {
			n.terms.Add(t)
		}
	}
}

// minimalNode returns a C-minimal node (Definition 5): a node whose terms
// include C and whose parent's terms do not. Returns nil when no node
// contains C.
func (t *Tree) minimalNode(c core.TermSet) *Node {
	for _, n := range t.Nodes {
		if n.terms.ContainsAll(c) && (n.Parent == nil || !n.Parent.terms.ContainsAll(c)) {
			return n
		}
	}
	return nil
}

// MinimalNodes returns every C-minimal node; Proposition 2 (P3) asserts
// there is at most one.
func (t *Tree) MinimalNodes(c core.TermSet) []*Node {
	var out []*Node
	for _, n := range t.Nodes {
		if n.terms.ContainsAll(c) && (n.Parent == nil || !n.Parent.terms.ContainsAll(c)) {
			out = append(out, n)
		}
	}
	return out
}

// VerifyProposition2 checks properties (P1)–(P3) of Proposition 2 for the
// built tree: the root has at most |terms(D)|+k terms, non-root nodes have
// at most m terms (m the maximal relation arity of th, k the number of
// constants in rules of th), and C-minimal nodes are unique for every set
// C of terms of any single node. It returns nil if all hold.
func (t *Tree) VerifyProposition2(th *core.Theory, d0 *database.Database) error {
	m := th.MaxArity()
	k := len(th.Constants())
	dTerms := len(d0.Terms())
	if got := len(t.Root.terms); got > dTerms+k {
		return fmt.Errorf("P1 violated: root has %d terms > |terms(D)|+k = %d", got, dTerms+k)
	}
	for _, n := range t.Nodes {
		if n == t.Root {
			continue
		}
		if len(n.terms) > m {
			return fmt.Errorf("P2 violated: node %d has %d terms > max arity %d", n.ID, len(n.terms), m)
		}
	}
	for _, n := range t.Nodes {
		if mins := t.MinimalNodes(n.terms); len(mins) > 1 {
			return fmt.Errorf("P3 violated: %d minimal nodes for terms of node %d", len(mins), n.ID)
		}
		// Also check singleton term sets (connectedness of the
		// decomposition hinges on these).
		for term := range n.terms {
			if mins := t.MinimalNodes(core.NewTermSet(term)); len(mins) > 1 {
				return fmt.Errorf("P3 violated: %d minimal nodes for term %v", len(mins), term)
			}
		}
	}
	return nil
}

// Width returns the width of the tree decomposition induced by the chase
// tree: max node term count minus 1.
func (t *Tree) Width() int {
	w := 0
	for _, n := range t.Nodes {
		if len(n.terms) > w {
			w = len(n.terms)
		}
	}
	return w - 1
}

// AllAtoms returns the union of all node atom sets.
func (t *Tree) AllAtoms() []core.Atom {
	var out []core.Atom
	for _, n := range t.Nodes {
		out = append(out, n.Atoms...)
	}
	return out
}

// Depth returns the depth of the tree (root = 0).
func (t *Tree) Depth() int {
	max := 0
	for _, n := range t.Nodes {
		d := 0
		for p := n; p.Parent != nil; p = p.Parent {
			d++
		}
		if d > max {
			max = d
		}
	}
	return max
}
