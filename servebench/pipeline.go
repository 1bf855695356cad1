package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"guardedrules/internal/budget"
	"guardedrules/internal/chase"
	"guardedrules/internal/classify"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/datalog"
	"guardedrules/internal/kb"
	"guardedrules/internal/kbcache"
	"guardedrules/internal/lint"
	"guardedrules/internal/normalize"
	"guardedrules/internal/parser"
	"guardedrules/internal/rewrite"
	"guardedrules/internal/saturate"
	"guardedrules/internal/store/segment"
)

// pipeline performs each request as the server's handler does, but as
// separate calls into each layer's public functions, each one a span.
// Calls a layer makes internally (kbcache compiling, planning and
// evaluating; datalog cloning its input) are re-executed on the same
// input as child spans, which time the nested layer on its own.
type pipeline struct {
	t     *tracer
	store *kbcache.Store

	durable bool
	dataDir string
	dbs     map[string]*database.Database
	order   []string // db ids, oldest first: the server's 32-entry DB cache
	segs    map[string]*segment.Store
	live    map[string][]*liveHandle // db id -> subscriptions
	plans   map[string]*shadowPlan   // KB id + plan key -> re-executable plan

	counts struct {
		factsDerived, datalogRules, closureRules, rewriteRules int
		segmentFacts                                           int
	}
}

// liveHandle is one subscription: the kbcache handle the server keeps,
// plus a datalog handle over the same program to time maintenance
// without kbcache.
type liveHandle struct {
	mq     *kbcache.MaintainedQuery
	shadow *datalog.Maintained
}

// shadowPlan is the program a cached kbcache plan evaluates; prog is nil
// for plans that chase per call.
type shadowPlan struct {
	prog    *datalog.Program
	seedRel string // magic plans: the seed relation
}

const maxDBs = 32 // the server's default DB cache

// requestBudget is the engine budget the server gives each request
// under `rulekit serve`'s default -timeout and -max-facts.
func requestBudget() *budget.T {
	cfg := serveConfig("")
	return &budget.T{Ctx: context.Background(), Timeout: cfg.DefaultTimeout, MaxFacts: cfg.MaxFacts}
}

// queryOptions are the options the server's query handler passes: the
// restricted chase, and no fact ceiling under a termination
// certificate.
func queryOptions(ckb *kbcache.CompiledKB) kbcache.QueryOptions {
	o := kbcache.QueryOptions{Variant: chase.Restricted, Budget: requestBudget()}
	if ckb.Mode == kbcache.ModeCertified {
		o.Budget.MaxFacts = 0
	}
	return o
}

func newPipeline(durable bool, dataDir string) *pipeline {
	return &pipeline{
		t:       &tracer{t0: time.Now()},
		store:   kbcache.NewStore(serveConfig("").Store),
		durable: durable,
		dataDir: dataDir,
		dbs:     map[string]*database.Database{},
		segs:    map[string]*segment.Store{},
		live:    map[string][]*liveHandle{},
		plans:   map[string]*shadowPlan{},
	}
}

func (p *pipeline) close() {
	for _, s := range p.segs {
		s.Close()
	}
}

// exec performs one request under a root span.
func (p *pipeline) exec(op string, rq request) (err error) {
	p.t.op = op
	p.t.run(0, "request."+rq.kind, func() {
		switch rq.kind {
		case "theories":
			err = p.theories(rq)
		case "dbs":
			err = p.load(rq)
		case "cq":
			err = p.cq(rq)
		case "atom":
			err = p.atom(rq)
		case "facts":
			err = p.facts(rq)
		case "subscribe":
			err = p.subscribe(rq)
		default:
			err = fmt.Errorf("no traced path for %s requests", rq.kind)
		}
	})
	if err != nil {
		return fmt.Errorf("%s %s: %w", rq.kind, rq.path, err)
	}
	return nil
}

// root is the current request's root span.
func (p *pipeline) root() int {
	for i := len(p.t.spans) - 1; i >= 0; i-- {
		if p.t.spans[i].Parent == 0 {
			return p.t.spans[i].ID
		}
	}
	return 0
}

func (p *pipeline) decode(rq request, v any) (err error) {
	p.t.run(p.root(), "codec.decode", func() { err = json.Unmarshal(rq.body, v) })
	return err
}

// encode renders a response as the server does (indented JSON).
func (p *pipeline) encode(v any) (err error) {
	p.t.run(p.root(), "codec.encode", func() { _, err = json.MarshalIndent(v, "", "  ") })
	return err
}

func (p *pipeline) theories(rq request) error {
	var body struct {
		Source string `json:"source"`
	}
	if err := p.decode(rq, &body); err != nil {
		return err
	}
	root := p.root()
	p.t.run(root, "kbcache.hash", func() { kbcache.HashSource(body.Source) })
	var (
		ckb    *kbcache.CompiledKB
		cached bool
		err    error
	)
	reg := p.t.run(root, "kbcache.register", func() {
		ckb, cached, err = p.store.Register(context.Background(), body.Source)
	})
	if err != nil {
		return err
	}
	if !cached {
		if err := p.compile(reg, body.Source); err != nil {
			return err
		}
	}
	var fragments []string
	for _, f := range ckb.Class.Fragments() {
		fragments = append(fragments, f.String())
	}
	tr := ckb.Termination
	return p.encode(map[string]any{
		"id": ckb.ID, "cached": cached, "mode": ckb.Mode.String(), "fragments": fragments,
		"chain": ckb.Chain, "rules": len(ckb.Theory.Rules), "lint": ckb.Lint,
		"termination": map[string]any{"class": tr.Class.String(), "certificate": tr.Certificate, "bound": tr.Bound},
	})
}

// compile re-executes kbcache's compile pipeline under parent: parse,
// lint with termination analysis, classification, and the fragment's
// translation route.
func (p *pipeline) compile(parent int, src string) error {
	var (
		th  *core.Theory
		err error
	)
	p.t.run(parent, "parser.parse_theory", func() { th, err = parser.ParseTheory(src) })
	if err != nil {
		return err
	}
	p.t.run(parent, "analysis.lint", func() {
		lctx := &lint.Context{Theory: th}
		lint.RunWithContext(lctx, lint.Registry())
		lctx.Termination()
	})
	var rep *classify.Report
	p.t.run(parent, "analysis.classify", func() { rep = classify.Classify(th) })
	_, err = p.translate(parent, th, rep, !th.HasNegation())
	return err
}

// translate runs the route kbcache picks for a classified theory and
// compiles the result; nil means the theory is served by a chase.
func (p *pipeline) translate(parent int, th *core.Theory, rep *classify.Report, positive bool) (*datalog.Program, error) {
	var (
		dat *core.Theory
		err error
	)
	switch {
	case rep.Member[classify.Datalog]:
		dat = th
	case positive && rep.Member[classify.NearlyGuarded]:
		dat, err = p.saturate(parent, th)
	case positive && rep.Member[classify.NearlyFrontierGuarded]:
		var ng *core.Theory
		p.t.run(parent, "translate.rewrite", func() {
			ng, _, err = rewrite.Rewrite(normalize.Normalize(th), rewrite.Options{})
		})
		if err != nil {
			return nil, err
		}
		p.counts.rewriteRules += len(ng.Rules)
		dat, err = p.saturate(parent, ng)
	default:
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var prog *datalog.Program
	p.t.run(parent, "datalog.compile", func() { prog, err = datalog.Compile(dat) })
	return prog, err
}

func (p *pipeline) saturate(parent int, th *core.Theory) (dat *core.Theory, err error) {
	var st *saturate.Stats
	p.t.run(parent, "translate.saturate", func() {
		dat, st, err = saturate.NearlyGuardedToDatalog(th, saturate.Options{})
	})
	if err == nil {
		p.counts.datalogRules += st.DatalogRules
		p.counts.closureRules += st.ClosureRules
	}
	return dat, err
}

func (p *pipeline) load(rq request) error {
	var body struct {
		Facts string `json:"facts"`
	}
	if err := p.decode(rq, &body); err != nil {
		return err
	}
	root := p.root()
	var (
		atoms []core.Atom
		err   error
		d     *database.Database
		id    string
	)
	p.t.run(root, "parser.parse_facts", func() { atoms, err = parser.ParseFacts(body.Facts) })
	if err != nil {
		return err
	}
	p.t.run(root, "database.from_atoms", func() { d = database.FromAtoms(atoms) })
	p.t.run(root, "kbcache.hash", func() { id = kbcache.HashSource(body.Facts) })
	if p.durable {
		if d, err = p.journal(root, id, atoms); err != nil {
			return err
		}
	}
	p.dbs[id] = d
	p.order = append(p.order, id)
	if len(p.order) > maxDBs {
		victim := p.order[0]
		p.order = p.order[1:]
		delete(p.dbs, victim)
		delete(p.live, victim)
		if s := p.segs[victim]; s != nil {
			delete(p.segs, victim)
			p.t.run(root, "segment.close", func() { err = s.Close() })
		}
	}
	if err != nil {
		return err
	}
	return p.encode(map[string]any{"id": id, "facts": len(atoms), "version": 1})
}

// journal opens the DB's segment store, journals and commits the
// facts, and returns the immutable clone readers are served.
func (p *pipeline) journal(root int, id string, atoms []core.Atom) (*database.Database, error) {
	var (
		s   *segment.Store
		err error
	)
	p.t.run(root, "segment.open", func() { s, err = segment.Open(filepath.Join(p.dataDir, id), segment.Options{}) })
	if err != nil {
		return nil, err
	}
	p.segs[id] = s
	p.t.run(root, "segment.add", func() {
		for _, a := range atoms {
			s.Add(a)
		}
	})
	p.t.run(root, "segment.commit", func() { _, err = s.Commit() })
	if err != nil {
		return nil, err
	}
	p.counts.segmentFacts += len(atoms)
	var d *database.Database
	p.t.run(root, "segment.clone", func() { d = s.Clone() })
	return d, nil
}

// diskBytesPerFact is the journal footprint per fact loaded.
func (p *pipeline) diskBytesPerFact() float64 {
	if p.counts.segmentFacts == 0 {
		return 0
	}
	var total int64
	filepath.WalkDir(p.dataDir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if info, err := e.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total) / float64(p.counts.segmentFacts)
}

type queryBody struct {
	TheoryID string `json:"theory_id"`
	DBID     string `json:"db_id"`
	CQ       string `json:"cq"`
	Atom     string `json:"atom"`
}

// target resolves a request's KB and DB.
func (p *pipeline) target(thID, dbID string) (*kbcache.CompiledKB, *database.Database, error) {
	ckb, ok := p.store.Get(thID)
	if !ok {
		return nil, nil, fmt.Errorf("unknown theory %.12s", thID)
	}
	d, ok := p.dbs[dbID]
	if !ok {
		return nil, nil, fmt.Errorf("unknown db %.12s", dbID)
	}
	return ckb, d, nil
}

func (p *pipeline) cq(rq request) error {
	var body queryBody
	if err := p.decode(rq, &body); err != nil {
		return err
	}
	root := p.root()
	var (
		q   kb.CQ
		err error
		res *kbcache.QueryResult
	)
	p.t.run(root, "parser.parse_cq", func() { q, err = kb.ParseCQ(body.CQ) })
	if err != nil {
		return err
	}
	ckb, d, err := p.target(body.TheoryID, body.DBID)
	if err != nil {
		return err
	}
	key := kbcache.CQKey(q)
	p.t.run(root, "kbcache.lookup", func() { ckb.PlanInfo(key) })
	ans := p.t.run(root, "kbcache.answer_cq", func() {
		res, err = ckb.AnswerCQ(context.Background(), q, d, queryOptions(ckb))
	})
	if err != nil {
		return err
	}
	sp, err := p.cqPlan(ans, ckb, q, key)
	if err != nil {
		return err
	}
	if sp.prog != nil {
		p.eval(ans, sp.prog, d)
	}
	return p.encode(p.reply(res))
}

// cqPlan re-executes kbcache's CQ plan build on a plan miss: attach the
// query rule, then translate the attached theory as the KB's mode says.
func (p *pipeline) cqPlan(parent int, ckb *kbcache.CompiledKB, q kb.CQ, key string) (*shadowPlan, error) {
	if sp, ok := p.plans[ckb.ID+key]; ok {
		return sp, nil
	}
	var (
		attached *core.Theory
		err      error
		rep      *classify.Report
	)
	sp := &shadowPlan{}
	switch ckb.Mode {
	case kbcache.ModeDatalog, kbcache.ModeTranslated:
		p.t.run(parent, "translate.attach", func() { attached, err = kb.Attach(ckb.Theory, q) })
		if err != nil {
			return nil, err
		}
		if ckb.Mode == kbcache.ModeDatalog {
			p.t.run(parent, "datalog.compile", func() { sp.prog, err = datalog.Compile(attached) })
			break
		}
		p.t.run(parent, "analysis.classify", func() { rep = classify.Classify(attached) })
		sp.prog, err = p.translate(parent, attached, rep, true)
	}
	if err != nil {
		return nil, err
	}
	p.plans[ckb.ID+key] = sp
	return sp, nil
}

// eval re-executes a plan's evaluation, with the clone of its input
// that evaluation starts with as a child.
func (p *pipeline) eval(parent int, prog *datalog.Program, in database.Store) {
	var fix *database.Database
	ev := p.t.run(parent, "datalog.eval", func() { fix, _ = prog.Eval(in, datalog.Options{Budget: requestBudget()}) })
	p.t.run(ev, "database.clone", func() { in.Clone() })
	if fix != nil {
		p.counts.factsDerived += fix.Len() - in.Len()
	}
}

func (p *pipeline) atom(rq request) error {
	var body queryBody
	if err := p.decode(rq, &body); err != nil {
		return err
	}
	root := p.root()
	var (
		query core.Atom
		err   error
		res   *kbcache.QueryResult
	)
	p.t.run(root, "parser.parse_atom", func() {
		var th *core.Theory
		if th, err = parser.ParseTheory(body.Atom + " -> QueryDummy__()."); err == nil {
			query = th.Rules[0].PositiveBody()[0]
		}
	})
	if err != nil {
		return err
	}
	ckb, d, err := p.target(body.TheoryID, body.DBID)
	if err != nil {
		return err
	}
	key := kbcache.AtomKey(query)
	p.t.run(root, "kbcache.lookup", func() { ckb.PlanInfo(key) })
	ans := p.t.run(root, "kbcache.answer_atom", func() {
		res, err = ckb.AnswerAtom(context.Background(), query, d, queryOptions(ckb))
	})
	if err != nil {
		return err
	}
	if ckb.Program() == nil {
		return errors.New("atom replay needs a compiled base program")
	}
	sp, ok := p.plans[ckb.ID+key]
	if !ok {
		// Where magic rewriting does not apply, kbcache evaluates the
		// base program in full.
		sp = &shadowPlan{prog: ckb.Program()}
		var (
			mr     *datalog.MagicResult
			magErr error
		)
		p.t.run(ans, "translate.magic", func() { mr, magErr = datalog.MagicRewrite(ckb.Program().Theory(), query) })
		if magErr == nil {
			sp.seedRel = mr.Seed.Relation
			p.t.run(ans, "datalog.compile", func() { sp.prog, err = datalog.Compile(mr.Program) })
			if err != nil {
				return err
			}
		}
		p.plans[ckb.ID+key] = sp
	}
	in := database.Store(d)
	if sp.seedRel != "" {
		var bound []core.Term
		for _, t := range query.Args {
			if t.IsConst() {
				bound = append(bound, t)
			}
		}
		p.t.run(ans, "database.clone", func() {
			c := d.Clone()
			c.Add(core.NewAtom(sp.seedRel, bound...))
			in = c
		})
	}
	p.eval(ans, sp.prog, in)
	return p.encode(p.reply(res))
}

// reply renders a query result the way the server's response does.
func (p *pipeline) reply(res *kbcache.QueryResult) map[string]any {
	return map[string]any{
		"answers": termRows(res.Answers), "count": len(res.Answers), "exact": res.Exact,
		"plan_key": res.PlanKey, "plan_hit": res.PlanHit, "chain": res.Chain,
	}
}

func (p *pipeline) facts(rq request) error {
	var body struct {
		Add     string `json:"add"`
		Retract string `json:"retract"`
	}
	if err := p.decode(rq, &body); err != nil {
		return err
	}
	root := p.root()
	var (
		adds, dels []core.Atom
		err        error
		work       *database.Database
	)
	p.t.run(root, "parser.parse_facts", func() {
		if adds, err = parser.ParseFacts(body.Add); err == nil {
			dels, err = parser.ParseFacts(body.Retract)
		}
	})
	if err != nil {
		return err
	}
	id := filepath.Base(filepath.Dir(rq.path))
	cur, ok := p.dbs[id]
	if !ok {
		return fmt.Errorf("unknown db %.12s", id)
	}
	p.t.run(root, "database.clone", func() { work = cur.Clone() })
	p.t.run(root, "database.apply", func() {
		for _, f := range dels {
			work.Retract(f)
		}
		for _, f := range adds {
			work.Add(f)
		}
	})
	p.dbs[id] = work
	var deltas []kbcache.AnswerDelta
	for _, h := range p.live[id] {
		var d kbcache.AnswerDelta
		m := p.t.run(root, "kbcache.maintain", func() { d, err = h.mq.Apply(adds, dels, kbcache.QueryOptions{Budget: requestBudget()}) })
		if err != nil {
			return err
		}
		p.t.run(m, "datalog.maintain", func() { _, _, err = h.shadow.Apply(adds, dels, datalog.Options{Budget: requestBudget()}) })
		if err != nil {
			return err
		}
		deltas = append(deltas, d)
	}
	events := make([]map[string]any, len(deltas))
	for k, d := range deltas {
		events[k] = map[string]any{"added": termRows(d.Added), "removed": termRows(d.Removed)}
	}
	return p.encode(map[string]any{"events": events, "facts": work.Len()})
}

func (p *pipeline) subscribe(rq request) error {
	var body queryBody
	if err := p.decode(rq, &body); err != nil {
		return err
	}
	root := p.root()
	var (
		q   kb.CQ
		err error
		mq  *kbcache.MaintainedQuery
	)
	p.t.run(root, "parser.parse_cq", func() { q, err = kb.ParseCQ(body.CQ) })
	if err != nil {
		return err
	}
	id := filepath.Base(filepath.Dir(rq.path))
	ckb, d, err := p.target(body.TheoryID, id)
	if err != nil {
		return err
	}
	var answers [][]core.Term
	reg := p.t.run(root, "kbcache.maintain_cq", func() {
		if mq, err = ckb.MaintainCQ(context.Background(), q, d, kbcache.QueryOptions{Budget: requestBudget()}); err == nil {
			answers = mq.Answers()
		}
	})
	if err != nil {
		return err
	}
	sp, err := p.cqPlan(reg, ckb, q, kbcache.CQKey(q))
	if err != nil {
		return err
	}
	h := &liveHandle{mq: mq}
	p.t.run(reg, "datalog.maintain", func() { h.shadow, err = datalog.NewMaintained(sp.prog, d, datalog.Options{Budget: requestBudget()}) })
	if err != nil {
		return err
	}
	p.live[id] = append(p.live[id], h)
	return p.encode(map[string]any{"answers": termRows(answers), "plan_key": mq.PlanKey()})
}
