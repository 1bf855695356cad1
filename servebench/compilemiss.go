package main

import (
	"encoding/json"
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"

	"guardedrules/internal/core"
	"guardedrules/internal/gen"
	"guardedrules/internal/kbcache"
	"guardedrules/internal/parser"
)

// compileMiss registers a never-seen theory on every op, loads a small
// DB over its signature and asks one cold CQ: the paper's pay-once
// translations (rew(Σ), dat(Σ)) and plan building dominate, the engine
// does almost nothing. Each op renames a template's predicates with the
// op index, so the 32-entry KB cache never hits.
type compileMiss struct {
	seed      int64
	tag       string
	offset    int
	templates []*template
}

// template is one theory shape of the cycle with its in-process
// reference: route and answers of the un-renamed theory.
type template struct {
	name, src, facts, cq string
	rels                 map[string]bool

	mode  string
	chain []string
	ref   answerSet
	// timed marks the templates that run rew(Σ) and then dat(Σ); only
	// their requests feed the latency metrics.
	timed bool
}

// The fixture theories of the repository's testdata (copied so the
// benchmark's inputs do not move when fixtures are edited): the
// nearly-guarded, guarded, plain-Datalog and certified-chase routes.
var fixtureTemplates = []struct{ name, src, facts, cq string }{
	{"dlsafe", `Node(X) -> exists K. Token(X,K).
Token(X,K) -> Tagged(X).
E(X,Y) -> T(X,Y).
T(X,Y), T(Y,Z) -> T(X,Z).
T(X,Y), Tagged(X), Tagged(Y) -> Connected(X,Y).
`, "Node(a). Node(b). Node(c). E(a,b). E(b,c).", "Connected(X,Y) -> Ans(X,Y)."},
	{"example7", `A(X) -> exists Y. R(X,Y).
R(X,Y) -> S(Y,Y).
S(X,Y) -> exists Z. T(X,Y,Z).
T(X,X,Y) -> B(X).
C(X), R(X,Y), B(Y) -> D(X).
`, "A(c). C(c).", "D(X) -> Ans(X)."},
	{"transitive", `E(X,Y) -> T(X,Y).
T(X,Y), T(Y,Z) -> T(X,Z).
`, "E(a,b). E(b,c). E(c,d).", "T(X,Y) -> Ans(X,Y)."},
	{"wguarded", `A(X) -> exists Y. R(Y,X).
R(Y,X), B(Z) -> P(Y,Z).
P(Y,Z), R(Y,X) -> Out(X,Z).
`, "A(a). B(b).", "Out(X,Z) -> Ans(X,Z)."},
}

// fgSeeds are the random frontier-guarded theories of the cycle; with
// the four fixtures the cycle has 17 templates.
const fgSeeds = 13

func (w *compileMiss) durable() bool { return false }
func (w *compileMiss) cycle() int    { return len(w.templates) }

func (w *compileMiss) prepare(seed int64) error {
	w.seed = seed
	w.tag = "s" + strconv.FormatUint(uint64(seed), 36) + "o"
	w.templates = nil
	for s := int64(1); s <= fgSeeds; s++ {
		th := gen.RandomFrontierGuardedTheory(gen.FGTheoryOptions{Rules: 6, Seed: s})
		w.templates = append(w.templates, &template{
			name:  fmt.Sprintf("fg%d", s),
			src:   parser.PrintTheory(th),
			facts: w.fgFacts(int(s)),
			cq:    "R(X,Y) -> Ans(X,Y).",
		})
	}
	for _, f := range fixtureTemplates {
		w.templates = append(w.templates, &template{name: f.name, src: f.src, facts: f.facts, cq: f.cq})
	}
	w.offset = pick(seed, -1, len(w.templates))
	for _, t := range w.templates {
		th, err := parser.ParseTheory(t.src)
		if err != nil {
			return fmt.Errorf("compile_miss: template %s: %w", t.name, err)
		}
		t.rels = map[string]bool{}
		for _, r := range th.Rules {
			for _, a := range r.AllAtoms() {
				if a.Relation != core.ACDom {
					t.rels[a.Relation] = true
				}
			}
		}
		rows, exact, mode, chain, err := referenceCQ(t.src, t.facts, t.cq)
		if err != nil || !exact {
			return fmt.Errorf("compile_miss: template %s reference: exact %v err %v", t.name, exact, err)
		}
		t.mode, t.chain, t.ref = mode.String(), chain, newAnswerSet(rows)
		t.timed = len(chain) == 2
	}
	return nil
}

// fgFacts is a seeded ≤18-fact DB over the generator's signature.
func (w *compileMiss) fgFacts(t int) string {
	var b strings.Builder
	for k := 0; k < 6; k++ {
		fmt.Fprintf(&b, "%s(d%d). ", []string{"A", "B", "C"}[pick(w.seed, t*100+k, 3)], pick(w.seed, t*100+20+k, 6))
	}
	for k := 0; k < 12; k++ {
		fmt.Fprintf(&b, "%s(d%d,d%d). ", []string{"R", "S"}[pick(w.seed, t*100+40+k, 2)],
			pick(w.seed, t*100+60+k, 6), pick(w.seed, t*100+80+k, 6))
	}
	return b.String()
}

var relName = regexp.MustCompile(`\b([A-Za-z][A-Za-z0-9_]*)\(`)

// rename suffixes every relation of the template in text.
func (t *template) rename(text, suffix string) string {
	return relName.ReplaceAllStringFunc(text, func(m string) string {
		name := m[:len(m)-1]
		if t.rels[name] {
			return name + suffix + "("
		}
		return m
	})
}

// setup warms one op of every translation route the cycle takes.
func (w *compileMiss) setup() []request {
	var reqs []request
	routes := map[string]bool{}
	for _, t := range w.templates {
		if route := fmt.Sprint(t.mode, len(t.chain)); !routes[route] {
			routes[route] = true
			reqs = append(reqs, w.opFor(t, w.tag+"warm"+t.name, classNone, classNone)...)
		}
	}
	return reqs
}

// op registers template (i+offset) mod 17 under a suffix no server has
// seen, loads its DB and asks its CQ. The latency metrics cover the
// rew→dat templates alone: their costs overlap from one template to the
// next, so the pooled samples have a smooth median and p90, whereas
// with the sub-millisecond routes mixed in the median would jump
// between clusters whose costs differ tenfold.
func (w *compileMiss) op(i int) []request {
	t := w.templates[(i+w.offset)%len(w.templates)]
	if !t.timed {
		return w.opFor(t, w.tag+strconv.Itoa(i), classNone, classNone)
	}
	return w.opFor(t, w.tag+strconv.Itoa(i), classPrimary, classSide)
}

func (w *compileMiss) opFor(t *template, tag string, register, query class) []request {
	suffix := "_" + tag
	src, facts := t.rename(t.src, suffix), t.rename(t.facts, suffix)
	thID, dbID := kbcache.HashSource(src), kbcache.HashSource(facts)
	return []request{
		post("/v1/theories", "theories", map[string]string{"source": src}, register, t.checkRoute),
		loadReq(facts),
		cqReq(thID, dbID, t.rename(t.cq, suffix), query, expectAnswers(t.ref)),
	}
}

// checkRoute compares a registration with the un-renamed template's
// in-process route: a fresh compile, same mode, same translation chain.
func (t *template) checkRoute(body []byte) error {
	var r struct {
		Cached bool     `json:"cached"`
		Mode   string   `json:"mode"`
		Chain  []string `json:"chain"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	switch {
	case r.Cached:
		return fmt.Errorf("template %s: registration hit the cache", t.name)
	case r.Mode != t.mode:
		return fmt.Errorf("template %s: mode %s, reference %s", t.name, r.Mode, t.mode)
	case !slices.Equal(r.Chain, t.chain):
		return fmt.Errorf("template %s: chain %q, reference %q", t.name, r.Chain, t.chain)
	}
	return nil
}
