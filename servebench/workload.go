package main

import (
	"context"
	"fmt"
	"strings"

	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/kb"
	"guardedrules/internal/kbcache"
	"guardedrules/internal/parser"
)

// workload is one traffic mix. Its inputs derive from the seed alone;
// the server receives only the generated requests.
type workload interface {
	// durable reports whether the server runs with a data dir.
	durable() bool
	// prepare builds the seeded inputs and computes the reference
	// answers in-process through the public kbcache API.
	prepare(seed int64) error
	// setup returns the requests that bring a fresh server to the state
	// the ops expect: registrations, loads, subscriptions and one
	// warm-up request per op type.
	setup() []request
	// op returns op i of the seeded stream.
	op(i int) []request
	// cycle is the number of ops after which the stream's mix repeats;
	// a measured window always ends on a cycle boundary.
	cycle() int
}

var workloads = map[string]func() workload{
	"read_mix":       func() workload { return &readMix{} },
	"compile_miss":   func() workload { return &compileMiss{} },
	"mutate_live":    func() workload { return &mutateLive{} },
	"ingest_durable": func() workload { return &ingestDurable{} },
}

// hotSource is a nearly guarded theory (served through dat(Σ)): value
// invention feeds B, and Linked joins the transitive closure T with B.
const hotSource = `A(X) -> exists Y. R(X,Y).
R(X,Y) -> B(X).
E(X,Y) -> T(X,Y).
T(X,Y), T(Y,Z) -> T(X,Z).
T(X,Y), B(X), B(Y) -> Linked(X,Y).
`

const (
	linkedCQ  = "Linked(X,Y) -> Ans(X,Y)."
	closureCQ = "T(X,Y) -> Ans(X,Y)."
)

// chainNode names node k of chain c.
func chainNode(prefix string, c, k int) string { return fmt.Sprintf("%s%d_%d", prefix, c, k) }

// chainFacts renders disjoint E-chains of `edges` edges each, with an A
// fact on every node but the last. Closures stay linear in the edge
// count: random cross-chain edges would make them quadratic.
func chainFacts(prefix string, chains, edges int) string {
	var b strings.Builder
	for c := 0; c < chains; c++ {
		for k := 0; k < edges; k++ {
			fmt.Fprintf(&b, "E(%s,%s). A(%s). ", chainNode(prefix, c, k), chainNode(prefix, c, k+1), chainNode(prefix, c, k))
		}
	}
	return b.String()
}

// atomQuery is T(<node 0 of chain c>, Y): the chain's reachable nodes.
func atomQuery(prefix string, c int) string { return fmt.Sprintf("T(%s,Y)", chainNode(prefix, c, 0)) }

// chainSuffix is the answer set of atomQuery on an intact chain.
func chainSuffix(prefix string, c, edges int) answerSet {
	s := answerSet{}
	for k := 1; k <= edges; k++ {
		s[rowKey([]string{chainNode(prefix, c, 0), chainNode(prefix, c, k)})] = true
	}
	return s
}

// pick is a deterministic draw in [0, n) for (seed, i), so op i of a
// stream is the same however the stream is consumed.
func pick(seed int64, i, n int) int {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}

func theoryReq(src string) request {
	return post("/v1/theories", "theories", map[string]string{"source": src}, classNone, nil)
}

func loadReq(facts string) request {
	return post("/v1/dbs", "dbs", map[string]string{"facts": facts}, classNone, nil)
}

func cqReq(thID, dbID, cq string, c class, check func([]byte) error) request {
	return post("/v1/query", "cq", map[string]string{"theory_id": thID, "db_id": dbID, "cq": cq}, c, check)
}

func atomReq(thID, dbID, atom string, c class, check func([]byte) error) request {
	return post("/v1/query", "atom", map[string]string{"theory_id": thID, "db_id": dbID, "atom": atom}, c, check)
}

// referenceCQ answers a CQ in-process through a fresh kbcache store.
func referenceCQ(src, facts, cq string) (rows [][]string, exact bool, mode kbcache.Mode, chain []string, err error) {
	ckb, _, err := kbcache.NewStore(kbcache.Config{}).Register(context.Background(), src)
	if err != nil {
		return nil, false, 0, nil, err
	}
	atoms, err := parser.ParseFacts(facts)
	if err != nil {
		return nil, false, 0, nil, err
	}
	q, err := kb.ParseCQ(cq)
	if err != nil {
		return nil, false, 0, nil, err
	}
	res, err := ckb.AnswerCQ(context.Background(), q, database.FromAtoms(atoms), kbcache.QueryOptions{})
	if err != nil {
		return nil, false, 0, nil, err
	}
	return termRows(res.Answers), res.Exact, ckb.Mode, ckb.Chain, nil
}

func termRows(tuples [][]core.Term) [][]string {
	out := make([][]string, len(tuples))
	for i, t := range tuples {
		row := make([]string, len(t))
		for j, term := range t {
			row[j] = term.String()
		}
		out[i] = row
	}
	return out
}
