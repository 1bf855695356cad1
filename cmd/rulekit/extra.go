package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"guardedrules"
	"guardedrules/internal/chase"
	"guardedrules/internal/database"
	"guardedrules/internal/datalog"
	"guardedrules/internal/normalize"
	"guardedrules/internal/parser"
	"guardedrules/internal/termination"
)

// cmdTermination reports the full acyclicity-hierarchy analysis of a
// theory: weak acyclicity, joint acyclicity, the critical-instance
// check, and the machine-checkable certificate behind the verdict.
func cmdTermination(args []string) error {
	fs := flag.NewFlagSet("termination", flag.ExitOnError)
	verbose := fs.Bool("v", false, "print the position dependency graph and the full certificate")
	asJSON := fs.Bool("json", false, "print the report as JSON")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("termination: expected one theory file")
	}
	th, err := loadTheory(fs.Arg(0))
	if err != nil {
		return err
	}
	rep := termination.Analyze(th)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Printf("termination class: %s\n", rep.Class)
	switch rep.Class {
	case termination.ClassWA:
		fmt.Printf("weakly acyclic: the restricted chase terminates on every database (max special-edge rank %d)\n", rep.Bound.MaxRank)
		fmt.Println("a certified per-database fact bound is available (rulekit chase prints it)")
	case termination.ClassJA:
		fmt.Printf("NOT weakly acyclic: value invention at %v feeds back into %v\n", rep.Witness.To, rep.Witness.From)
		fmt.Printf("jointly acyclic: no existential variable consumes its own nulls; order %s\n", evarList(rep.Certificate.Order))
	case termination.ClassSWA:
		fmt.Printf("NOT jointly acyclic: dependency cycle %s\n", evarList(rep.JACycle))
		fmt.Printf("critically terminating: the all-star critical-instance chase saturates in %d facts / %d rounds — the chase (both variants) terminates on every database\n",
			rep.Critical.Facts, rep.Critical.Rounds)
	default:
		fmt.Printf("no termination certificate: not weakly acyclic (witness: %v => %v, special)", rep.Witness.From, rep.Witness.To)
		if len(rep.JACycle) > 0 {
			fmt.Printf("; not jointly acyclic (cycle %s)", evarList(rep.JACycle))
		}
		fmt.Println()
		if rep.Critical != nil {
			switch {
			case len(rep.Critical.LineageCycle) > 0:
				fmt.Printf("critical-instance chase mints nulls along the cycle %s: the chase is INFINITE on the all-star instance\n",
					evarList(rep.Critical.LineageCycle))
			case rep.Critical.Exhausted:
				fmt.Println("critical-instance chase exhausted its budget without a verdict")
			}
		}
	}
	if rep.Certificate != nil {
		if err := rep.Certificate.Verify(th); err != nil {
			return fmt.Errorf("termination: certificate failed verification: %w", err)
		}
		fmt.Println("certificate: verified")
	}
	if *verbose {
		for _, e := range rep.Edges {
			kind := "regular"
			if e.Special {
				kind = "special"
			}
			fmt.Printf("  %v -> %v  (%s)\n", e.From, e.To, kind)
		}
		if rep.Certificate != nil {
			blob, err := json.MarshalIndent(rep.Certificate, "  ", "  ")
			if err != nil {
				return err
			}
			fmt.Printf("  certificate: %s\n", blob)
		}
	}
	return nil
}

// evarList renders an existential-variable sequence for messages.
func evarList(vs []termination.EVar) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = v.String()
	}
	return strings.Join(parts, " -> ")
}

// cmdContains decides CQ containment between two query files.
func cmdContains(args []string) error {
	fs := flag.NewFlagSet("contains", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("contains: expected two query files (q1 q2; decides q1 ⊑ q2)")
	}
	load := func(path string) (guardedrules.CQ, error) {
		src, err := os.ReadFile(path)
		if err != nil {
			return guardedrules.CQ{}, err
		}
		return guardedrules.ParseCQ(string(src))
	}
	q1, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	q2, err := load(fs.Arg(1))
	if err != nil {
		return err
	}
	ok, err := guardedrules.CQContained(q1, q2)
	if err != nil {
		return err
	}
	if ok {
		fmt.Println("q1 is contained in q2: every answer of q1 is an answer of q2 on every database")
	} else {
		fmt.Println("q1 is NOT contained in q2")
	}
	return nil
}

// cmdCore minimizes a fact file to its core. The endomorphism search is
// governed: -timeout and -max-steps bound it, and an exhausted run
// reports the (sound) current set with exact=false.
func cmdCore(args []string) error {
	fs := flag.NewFlagSet("core", flag.ExitOnError)
	maxSteps := fs.Int("max-steps", 0, "cap on candidate endomorphisms inspected (0 = none)")
	bf := addBudgetFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("core: expected one facts file")
	}
	d, err := loadFacts(fs.Arg(0))
	if err != nil {
		return err
	}
	atoms := d.UserFacts()
	opts := bf.options()
	opts.MaxSteps = *maxSteps
	coreAtoms, exact, err := guardedrules.CoreOfCtx(context.Background(), atoms, opts)
	if err != nil {
		if !guardedrules.IsBudgetError(err) {
			return err
		}
		fmt.Fprintf(os.Stderr, "core: warning: search truncated (%v); result is sound but may not be minimal\n", err)
	}
	for _, a := range coreAtoms {
		fmt.Println(parser.PrintAtom(a) + ".")
	}
	fmt.Fprintf(os.Stderr, "core: %d -> %d atoms (exact=%v)\n", len(atoms), len(coreAtoms), exact)
	return nil
}

// cmdTree prints the chase tree of a normal frontier-guarded theory.
func cmdTree(args []string) error {
	fs := flag.NewFlagSet("tree", flag.ExitOnError)
	data := fs.String("data", "", "facts file")
	depth := fs.Int("depth", 6, "null-depth bound")
	bf := addBudgetFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 || *data == "" {
		return fmt.Errorf("tree: expected -data and one theory file")
	}
	th, err := loadTheory(fs.Arg(0))
	if err != nil {
		return err
	}
	d, err := loadFacts(*data)
	if err != nil {
		return err
	}
	norm := normalize.Normalize(th)
	tree, res, err := chase.RunTree(norm, toInternal(d), chase.Options{
		Variant: chase.Oblivious, MaxDepth: *depth, Budget: bf.budget(500_000),
	})
	if err != nil {
		if !guardedrules.IsBudgetError(err) || tree == nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "tree: warning: chase truncated (%v); printing the partial tree\n", err)
	}
	var print func(n *chase.Node, indent string)
	print = func(n *chase.Node, indent string) {
		label := "node"
		if n.Parent == nil {
			label = "root"
		}
		fmt.Printf("%s%s %d (%d atoms, %d terms)\n", indent, label, n.ID, len(n.Atoms), len(n.Terms()))
		for _, a := range n.Atoms {
			fmt.Printf("%s    %v\n", indent, a)
		}
		for _, c := range tree.Nodes {
			if c.Parent == n {
				print(c, indent+"  ")
			}
		}
	}
	print(tree.Root, "")
	fmt.Fprintf(os.Stderr, "tree: %d nodes, depth %d, width %d; chase saturated=%v\n",
		len(tree.Nodes), tree.Depth(), tree.Width(), res.Saturated)
	if err := tree.VerifyProposition2(norm, toInternal(d)); err != nil {
		fmt.Fprintf(os.Stderr, "tree: Proposition 2 check FAILED: %v\n", err)
	} else {
		fmt.Fprintln(os.Stderr, "tree: Proposition 2 (P1)-(P3) verified")
	}
	return nil
}

// toInternal is an identity helper documenting that the facade Database is
// the internal one.
func toInternal(d *guardedrules.Database) *database.Database { return d }

// cmdExplain prints the proof tree of a ground atom under the chase.
func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	data := fs.String("data", "", "facts file")
	atomSrc := fs.String("atom", "", "ground atom to explain, e.g. 'Q(a1)'")
	depth := fs.Int("depth", 8, "null-depth bound")
	bf := addBudgetFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 || *data == "" || *atomSrc == "" {
		return fmt.Errorf("explain: expected -data, -atom and one theory file")
	}
	th, err := loadTheory(fs.Arg(0))
	if err != nil {
		return err
	}
	d, err := loadFacts(*data)
	if err != nil {
		return err
	}
	atoms, err := parser.ParseFacts(*atomSrc + ".")
	if err != nil || len(atoms) != 1 {
		return fmt.Errorf("explain: -atom must be a single ground atom: %v", err)
	}
	res, prov, err := chase.RunWithProvenance(th, toInternal(d), chase.Options{
		Variant: chase.Restricted, MaxDepth: *depth, Budget: bf.budget(2_000_000),
	})
	if err != nil {
		if !guardedrules.IsBudgetError(err) || res == nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "explain: warning: chase truncated (%v); proofs reflect the partial run\n", err)
	}
	if !res.Entails(atoms[0]) {
		fmt.Printf("%v is NOT entailed", atoms[0])
		if !res.Saturated {
			fmt.Print(" within the chase bounds (truncated run)")
		}
		fmt.Println()
		return nil
	}
	tree := prov.Explain(atoms[0], toInternal(d))
	if tree == nil {
		fmt.Printf("%v holds in the input database\n", atoms[0])
		return nil
	}
	fmt.Print(tree.String())
	fmt.Fprintf(os.Stderr, "explain: proof with %d nodes, depth %d\n", tree.Size(), tree.Depth())
	return nil
}

// cmdMagic answers a Datalog goal with the magic-sets rewriting.
func cmdMagic(args []string) error {
	fs := flag.NewFlagSet("magic", flag.ExitOnError)
	data := fs.String("data", "", "facts file")
	goal := fs.String("goal", "", "goal atom with constants bound, e.g. 'Anc(a0,Y)'")
	bf := addBudgetFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 || *data == "" || *goal == "" {
		return fmt.Errorf("magic: expected -data, -goal and one theory file")
	}
	th, err := loadTheory(fs.Arg(0))
	if err != nil {
		return err
	}
	d, err := loadFacts(*data)
	if err != nil {
		return err
	}
	// Parse the goal as a rule body to allow variables.
	goalTheory, err := parser.ParseTheory(*goal + " -> GoalDummy__().")
	if err != nil {
		return fmt.Errorf("magic: bad goal: %v", err)
	}
	body := goalTheory.Rules[0].PositiveBody()
	if len(body) != 1 {
		return fmt.Errorf("magic: goal must be a single atom")
	}
	ans, _, err := datalog.AnswerWithMagicOpts(th, body[0], toInternal(d), datalog.Options{Budget: bf.budget(0)})
	if err != nil {
		if !guardedrules.IsBudgetError(err) {
			return err
		}
		fmt.Fprintf(os.Stderr, "magic: warning: evaluation truncated (%v); answers are a sound under-approximation\n", err)
	}
	for _, tuple := range ans {
		parts := make([]string, len(tuple))
		for i, t := range tuple {
			parts[i] = t.String()
		}
		fmt.Printf("%s(%s)\n", body[0].Relation, strings.Join(parts, ","))
	}
	fmt.Fprintf(os.Stderr, "magic: %d answers\n", len(ans))
	return nil
}
