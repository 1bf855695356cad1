package parser

import (
	"fmt"
	"slices"
	"strings"

	"guardedrules/internal/core"
)

// Program is the result of parsing: a theory (rules) and a database (ground
// facts), in input order.
type Program struct {
	Theory *core.Theory
	Facts  []core.Atom
}

type parser struct {
	lex  *lexer
	tok  token
	prev token
	// lenient parsing skips the per-rule safety check, so that the lint
	// package can report safety violations as positioned diagnostics
	// instead of the parser rejecting the input outright.
	lenient bool
	buf     []core.Term // terms' scratch list
}

func newParser(src string) (*parser, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.next(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *parser) next() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.prev = p.tok
	p.tok = t
	return nil
}

func (p *parser) expect(kind tokenKind) (token, error) {
	if p.tok.kind != kind {
		return token{}, fmt.Errorf("%d:%d: expected %v, found %v %q", p.tok.line, p.tok.col, kind, p.tok.kind, p.tok.text)
	}
	t := p.tok
	return t, p.next()
}

// Parse parses a program containing rules and facts.
func Parse(src string) (*Program, error) { return parse(src, false) }

// ParseLenient parses like Parse but does not enforce rule safety
// (core.Rule.CheckSafe): unsafe rules are kept in the theory so that the
// lint package can report each violation as a positioned diagnostic.
// Syntax errors are still rejected.
func ParseLenient(src string) (*Program, error) { return parse(src, true) }

func parse(src string, lenient bool) (*Program, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	p.lenient = lenient
	prog := &Program{Theory: core.NewTheory()}
	for p.tok.kind != tokEOF {
		if err := p.statement(prog); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// ParseTheory parses rules only; facts are rejected.
func ParseTheory(src string) (*core.Theory, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Facts) > 0 {
		return nil, fmt.Errorf("theory contains a fact %v; use '-> %v.' for a constant rule", prog.Facts[0], prog.Facts[0])
	}
	return prog.Theory, nil
}

// ParseFacts parses ground facts only; rules are rejected.
func ParseFacts(src string) ([]core.Atom, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Theory.Rules) > 0 {
		return nil, fmt.Errorf("database contains a rule %v", prog.Theory.Rules[0])
	}
	return prog.Facts, nil
}

// MustParseTheory parses rules and panics on error. For tests and
// package-level fixtures only: this is the one deliberate panic surface
// of the library — engines convert invalid input into returned errors,
// and the guardedrules facade recovers internal panics — so production
// callers should use ParseTheory instead.
func MustParseTheory(src string) *core.Theory {
	t, err := ParseTheory(src)
	if err != nil {
		panic(err)
	}
	return t
}

// MustParseFacts parses ground facts and panics on error. Like
// MustParseTheory, it is a deliberate fixture-only panic surface;
// production callers should use ParseFacts.
func MustParseFacts(src string) []core.Atom {
	f, err := ParseFacts(src)
	if err != nil {
		panic(err)
	}
	return f
}

// statement parses one rule or fact terminated by '.'.
func (p *parser) statement(prog *Program) error {
	line, col := p.tok.line, p.tok.col
	// A statement starting with '->' is a body-less rule.
	if p.tok.kind == tokArrow {
		return p.ruleFrom(prog, nil, line, col)
	}
	// A fact allocates only its arguments: body stays nil until a ',' or
	// '->' makes the statement a rule.
	var body []core.Literal
	for {
		lit, err := p.literal()
		if err != nil {
			return err
		}
		switch p.tok.kind {
		case tokComma:
			body = append(body, lit)
			if err := p.next(); err != nil {
				return err
			}
		case tokArrow:
			return p.ruleFrom(prog, append(body, lit), line, col)
		case tokDot:
			// A fact.
			if len(body) > 0 || lit.Negated {
				return fmt.Errorf("line %d: expected '->' before '.'", line)
			}
			if !lit.Atom.IsGround() {
				return fmt.Errorf("line %d: fact %v is not ground", line, lit.Atom)
			}
			prog.Facts = append(prog.Facts, lit.Atom)
			return p.next()
		default:
			return fmt.Errorf("%d:%d: expected ',', '->' or '.', found %v %q", p.tok.line, p.tok.col, p.tok.kind, p.tok.text)
		}
	}
}

// ruleFrom parses the head part after '->' and appends the rule.
func (p *parser) ruleFrom(prog *Program, body []core.Literal, line, col int) error {
	if _, err := p.expect(tokArrow); err != nil {
		return err
	}
	var exist []core.Term
	if p.tok.kind == tokExists {
		if err := p.next(); err != nil {
			return err
		}
		for {
			v, err := p.expect(tokVariable)
			if err != nil {
				return err
			}
			exist = append(exist, core.Var(v.text))
			if p.tok.kind != tokComma {
				break
			}
			if err := p.next(); err != nil {
				return err
			}
		}
		if _, err := p.expect(tokDot); err != nil {
			return err
		}
	}
	var head []core.Atom
	for {
		a, err := p.atom()
		if err != nil {
			return err
		}
		head = append(head, a)
		if p.tok.kind != tokComma {
			break
		}
		if err := p.next(); err != nil {
			return err
		}
	}
	if _, err := p.expect(tokDot); err != nil {
		return err
	}
	// p.prev is the terminating dot.
	span := core.Span{Line: line, Col: col, EndLine: p.prev.line, EndCol: p.prev.col + len(p.prev.text)}
	r := &core.Rule{Body: body, Head: head, Exist: exist, Label: fmt.Sprintf("line%d", line), Span: span}
	if !p.lenient {
		if err := r.CheckSafe(); err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
	}
	prog.Theory.Add(r)
	return nil
}

func (p *parser) literal() (core.Literal, error) {
	neg := false
	if p.tok.kind == tokNot {
		neg = true
		if err := p.next(); err != nil {
			return core.Literal{}, err
		}
	}
	a, err := p.atom()
	if err != nil {
		return core.Literal{}, err
	}
	return core.Literal{Atom: a, Negated: neg}, nil
}

func (p *parser) atom() (core.Atom, error) {
	// Relation names are recognized by position (always followed by '(' or
	// '['), so both capitalizations are accepted: Publication(x) and
	// hasTopic(x,z).
	if p.tok.kind != tokIdent && p.tok.kind != tokVariable {
		return core.Atom{}, fmt.Errorf("%d:%d: expected a relation name, found %v %q", p.tok.line, p.tok.col, p.tok.kind, p.tok.text)
	}
	a := core.Atom{Relation: p.tok.text, Span: core.Span{Line: p.tok.line, Col: p.tok.col}}
	if err := p.next(); err != nil {
		return core.Atom{}, err
	}
	if p.tok.kind == tokLBrack {
		if err := p.next(); err != nil {
			return core.Atom{}, err
		}
		ann, err := p.terms(tokRBrack)
		if err != nil {
			return core.Atom{}, err
		}
		a.Annotation = ann
	}
	if _, err := p.expect(tokLParen); err != nil {
		return core.Atom{}, err
	}
	if p.tok.kind == tokRParen {
		a.Span.EndLine, a.Span.EndCol = p.tok.line, p.tok.col+1
		return a, p.next()
	}
	args, err := p.terms(tokRParen)
	if err != nil {
		return core.Atom{}, err
	}
	a.Args = args
	// p.prev is the closing ')'.
	a.Span.EndLine, a.Span.EndCol = p.prev.line, p.prev.col+1
	return a, nil
}

// terms parses a non-empty comma-separated term list and its closing
// token. It collects the terms in the reused p.buf, so the returned
// slice, of exactly their length, is the list's one allocation.
func (p *parser) terms(close tokenKind) ([]core.Term, error) {
	p.buf = p.buf[:0]
	for {
		t, err := p.term()
		if err != nil {
			return nil, err
		}
		p.buf = append(p.buf, t)
		if p.tok.kind != tokComma {
			break
		}
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(close); err != nil {
		return nil, err
	}
	return slices.Clone(p.buf), nil
}

func (p *parser) term() (core.Term, error) {
	switch p.tok.kind {
	case tokVariable:
		t := core.Var(p.tok.text)
		return t, p.next()
	case tokIdent:
		t := core.Const(p.tok.text)
		return t, p.next()
	case tokNull:
		t := core.NewNull(p.tok.text)
		return t, p.next()
	default:
		return core.Term{}, fmt.Errorf("%d:%d: expected a term, found %v %q", p.tok.line, p.tok.col, p.tok.kind, p.tok.text)
	}
}

// PrintTerm renders a term in parseable syntax: variables get a '?' prefix
// so that internally generated lower-case variable names survive a
// round-trip.
func PrintTerm(t core.Term) string {
	switch t.Kind {
	case core.Variable:
		return "?" + t.Name
	case core.Null:
		return "_:" + t.Name
	default:
		return t.Name
	}
}

// PrintAtom renders an atom in parseable syntax.
func PrintAtom(a core.Atom) string {
	var sb strings.Builder
	sb.WriteString(a.Relation)
	if len(a.Annotation) > 0 {
		sb.WriteByte('[')
		for i, t := range a.Annotation {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(PrintTerm(t))
		}
		sb.WriteByte(']')
	}
	sb.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(PrintTerm(t))
	}
	sb.WriteByte(')')
	return sb.String()
}

// PrintRule renders a rule in parseable syntax (without trailing dot).
func PrintRule(r *core.Rule) string {
	var sb strings.Builder
	for i, l := range r.Body {
		if i > 0 {
			sb.WriteString(", ")
		}
		if l.Negated {
			sb.WriteString("not ")
		}
		sb.WriteString(PrintAtom(l.Atom))
	}
	if len(r.Body) > 0 {
		sb.WriteByte(' ')
	}
	sb.WriteString("-> ")
	if len(r.Exist) > 0 {
		sb.WriteString("exists ")
		for i, v := range r.Exist {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(PrintTerm(v))
		}
		sb.WriteString(". ")
	}
	for i, h := range r.Head {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(PrintAtom(h))
	}
	return sb.String()
}

// PrintTheory renders a theory, one rule per line, in parseable syntax.
func PrintTheory(t *core.Theory) string {
	var sb strings.Builder
	for _, r := range t.Rules {
		sb.WriteString(PrintRule(r))
		sb.WriteString(".\n")
	}
	return sb.String()
}

// PrintFacts renders ground atoms one per line, in parseable syntax.
func PrintFacts(facts []core.Atom) string {
	var sb strings.Builder
	for _, f := range facts {
		sb.WriteString(PrintAtom(f))
		sb.WriteString(".\n")
	}
	return sb.String()
}
