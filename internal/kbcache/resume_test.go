package kbcache

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"guardedrules/internal/database"
	"guardedrules/internal/datalog"
	"guardedrules/internal/gen"
	"guardedrules/internal/kb"
	"guardedrules/internal/parser"
)

// coldCQs are distinct query shapes over the generators' signature.
var coldCQs = []string{
	"R(X,Y) -> Ans(X,Y).",
	"S(X,Y) -> Ans(X,Y).",
	"A(X) -> Ans(X).",
	"B(X) -> Ans(X).",
	"C(X) -> Ans(X).",
	"R(X,Y), A(Y) -> Ans(X,Y).",
	"S(X,Y), B(X) -> Ans(X,Y).",
	"R(X,Y), C(Y) -> Ans(X,Y).",
}

func fgSource(seed int64) string {
	return parser.PrintTheory(gen.RandomFrontierGuardedTheory(gen.FGTheoryOptions{Rules: 6, Seed: seed}))
}

func fgFacts() *database.Database {
	return database.FromAtoms(parser.MustParseFacts(
		`A(a). B(b). C(c). R(a,b). R(b,c). S(c,a). S(a,a). R(c,c).`))
}

// A registered theory is saturated once; every cold CQ plan extends its
// frozen Ξ(rew(Σ)) instead of saturating Σ∪q again, and says so.
func TestColdPlansResumeFrozenClosure(t *testing.T) {
	for _, seed := range []int64{1, 2, 5, 10} {
		s := NewStore(Config{})
		ckb := mustRegister(t, s, fgSource(seed))
		if ckb.Mode != ModeTranslated {
			t.Fatalf("seed %d: mode %v", seed, ckb.Mode)
		}
		for _, src := range coldCQs {
			res, err := ckb.AnswerCQ(context.Background(), mustCQ(t, src), fgFacts(), QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if last := res.Chain[len(res.Chain)-1]; !strings.Contains(last, "resumed from Ξ(rew(Σ))") {
				t.Fatalf("seed %d, %s: chain %q", seed, src, res.Chain)
			}
		}
		m := s.Metrics().Snapshot()
		if m["saturations_full"] != 1 || m["saturations_resumed"] != int64(len(coldCQs)) {
			t.Fatalf("seed %d: saturations full=%d resumed=%d, want 1 and %d",
				seed, m["saturations_full"], m["saturations_resumed"], len(coldCQs))
		}
	}
}

// A KB restored from its artifact saturates nothing at boot; its first
// cold plan builds the frozen closure once, and later plans resume.
func TestRestoredKBBuildsClosureOnFirstColdPlan(t *testing.T) {
	ckb := mustRegister(t, NewStore(Config{}), fgSource(2))
	s := NewStore(Config{})
	rkb, _, err := s.RegisterArtifact(context.Background(), ckb.Artifact())
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Metrics().SaturationsFull.Load(); n != 0 {
		t.Fatalf("restore ran %d saturations", n)
	}
	for i, src := range coldCQs[:3] {
		want, err := ckb.AnswerCQ(context.Background(), mustCQ(t, src), fgFacts(), QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := rkb.AnswerCQ(context.Background(), mustCQ(t, src), fgFacts(), QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if same, diff := datalog.SameAnswers(want.Answers, got.Answers); !same {
			t.Fatalf("%s: restored KB diverges: %s", src, diff)
		}
		if full, resumed := s.Metrics().SaturationsFull.Load(), s.Metrics().SaturationsResumed.Load(); full != 1 || resumed != int64(i+1) {
			t.Fatalf("after %d cold plans: full=%d resumed=%d", i+1, full, resumed)
		}
	}
}

// Concurrent cold plans share one frozen closure; their answers must
// equal those of plans built one at a time.
func TestConcurrentColdPlansMatchSequential(t *testing.T) {
	src := fgSource(2)
	seq := mustRegister(t, NewStore(Config{}), src)
	want := make([]string, len(coldCQs))
	for i, q := range coldCQs {
		res, err := seq.AnswerCQ(context.Background(), mustCQ(t, q), fgFacts(), QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprint(res.Answers)
	}
	s := NewStore(Config{})
	par := mustRegister(t, s, src)
	got := make([]string, len(coldCQs))
	errs := make([]error, len(coldCQs))
	var wg sync.WaitGroup
	for i, q := range coldCQs {
		wg.Add(1)
		go func(i int, q string) {
			defer wg.Done()
			cq, err := kb.ParseCQ(q)
			if err != nil {
				errs[i] = err
				return
			}
			res, err := par.AnswerCQ(context.Background(), cq, fgFacts(), QueryOptions{})
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = fmt.Sprint(res.Answers)
		}(i, q)
	}
	wg.Wait()
	for i := range coldCQs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("%s: concurrent %s, sequential %s", coldCQs[i], got[i], want[i])
		}
	}
	if n := s.Metrics().SaturationsResumed.Load(); n != int64(len(coldCQs)) {
		t.Errorf("resumed %d of %d cold plans", n, len(coldCQs))
	}
}
