package main

import (
	"context"
	"fmt"

	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/datalog"
	"guardedrules/internal/kbcache"
	"guardedrules/internal/parser"
)

// readMix alternates plan-hit reads on two DBs: a join-bound CQ with
// 3,800 answers on an 800-fact DB, and a goal-directed atom query with
// 12 answers on a 28,800-fact DB, which the magic-sets path answers
// after cloning the whole DB.
type readMix struct {
	seed                 int64
	thID, joinID, wideID string
	joinFacts, wideFacts string
	cqCheck              func([]byte) error
	atomRef              []answerSet // per wide chain
}

const (
	joinChains, joinEdges = 20, 20
	wideChains, wideEdges = 1200, 12
)

func (w *readMix) durable() bool { return false }
func (w *readMix) cycle() int    { return 2 }

func (w *readMix) prepare(seed int64) error {
	w.seed = seed
	w.joinFacts = chainFacts("j", joinChains, joinEdges)
	w.wideFacts = chainFacts("w", wideChains, wideEdges)
	w.thID = kbcache.HashSource(hotSource)
	w.joinID = kbcache.HashSource(w.joinFacts)
	w.wideID = kbcache.HashSource(w.wideFacts)

	rows, exact, _, _, err := referenceCQ(hotSource, w.joinFacts, linkedCQ)
	if err != nil || !exact {
		return fmt.Errorf("read_mix: CQ reference: exact %v err %v", exact, err)
	}
	w.cqCheck = expectAnswers(newAnswerSet(rows))

	// One full fixpoint of dat(Σ) on the wide DB answers every atom the
	// stream can ask.
	ckb, _, err := kbcache.NewStore(kbcache.Config{}).Register(context.Background(), hotSource)
	if err != nil {
		return err
	}
	atoms, err := parser.ParseFacts(w.wideFacts)
	if err != nil {
		return err
	}
	fix, err := ckb.Program().Eval(database.FromAtoms(atoms), datalog.Options{})
	if err != nil {
		return fmt.Errorf("read_mix: atom reference: %w", err)
	}
	w.atomRef = make([]answerSet, wideChains)
	for c := range w.atomRef {
		root := core.Const(chainNode("w", c, 0))
		set := answerSet{}
		for _, f := range fix.FactsWith(core.RelKey{Name: "T", Arity: 2}, 0, root) {
			set[rowKey([]string{f.Args[0].String(), f.Args[1].String()})] = true
		}
		w.atomRef[c] = set
	}
	// The references must agree with the chains' shape, or the DB
	// generator and the engine disagree about what a chain is.
	if want := joinChains * joinEdges * (joinEdges - 1) / 2; len(rows) != want {
		return fmt.Errorf("read_mix: CQ reference has %d answers, chains imply %d", len(rows), want)
	}
	if got := len(w.atomRef[0]); got != wideEdges {
		return fmt.Errorf("read_mix: atom reference has %d answers, chains imply %d", got, wideEdges)
	}
	return nil
}

func (w *readMix) setup() []request {
	return []request{
		theoryReq(hotSource),
		loadReq(w.joinFacts),
		loadReq(w.wideFacts),
		cqReq(w.thID, w.joinID, linkedCQ, classNone, w.cqCheck),
		atomReq(w.thID, w.wideID, atomQuery("w", 0), classNone, expectAnswers(w.atomRef[0])),
	}
}

// op alternates CQ and atom reads, so the mix is exactly 50/50; the seed
// picks which chain each atom query asks about.
func (w *readMix) op(i int) []request {
	if i%2 == 0 {
		return []request{cqReq(w.thID, w.joinID, linkedCQ, classPrimary, w.cqCheck)}
	}
	c := pick(w.seed, i, wideChains)
	return []request{atomReq(w.thID, w.wideID, atomQuery("w", c), classSide, expectAnswers(w.atomRef[c]))}
}
