// Package parser implements a textual syntax for existential rule theories
// and databases.
//
// The grammar, line oriented with '%' comments:
//
//	rule     ::= [body] "->" [exists] head "."
//	body     ::= literal ("," literal)*
//	literal  ::= ["not"] atom
//	exists   ::= "exists" var ("," var)* "."
//	head     ::= atom ("," atom)*
//	atom     ::= ident [ "[" term ("," term)* "]" ] "(" [term ("," term)*] ")"
//	fact     ::= atom "."                    (ground, in database files)
//	term     ::= variable | constant | null
//
// Identifiers starting with an upper-case letter or '?' are variables;
// identifiers starting with a lower-case letter or digit are constants;
// '_:name' is a labeled null (allowed in databases only).
package parser

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokVariable
	tokNull
	tokArrow  // ->
	tokComma  // ,
	tokDot    // .
	tokLParen // (
	tokRParen // )
	tokLBrack // [
	tokRBrack // ]
	tokNot    // not / !
	tokExists // exists
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokVariable:
		return "variable"
	case tokNull:
		return "null"
	case tokArrow:
		return "'->'"
	case tokComma:
		return "','"
	case tokDot:
		return "'.'"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBrack:
		return "'['"
	case tokRBrack:
		return "']'"
	case tokNot:
		return "'not'"
	case tokExists:
		return "'exists'"
	default:
		return fmt.Sprintf("token(%d)", int(k))
	}
}

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) errorf(line, col int, format string, args ...interface{}) error {
	return fmt.Errorf("%d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

func (l *lexer) peekByte() (byte, bool) {
	if l.pos >= len(l.src) {
		return 0, false
	}
	return l.src[l.pos], true
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '?' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) || c == '\''
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	for {
		c, ok := l.peekByte()
		if !ok {
			return token{kind: tokEOF, line: l.line, col: l.col}, nil
		}
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '%':
			for {
				c2, ok := l.peekByte()
				if !ok || c2 == '\n' {
					break
				}
				l.advance()
			}
		default:
			goto scan
		}
	}
scan:
	line, col := l.line, l.col
	c := l.advance()
	switch c {
	case ',':
		return token{tokComma, ",", line, col}, nil
	case '.':
		return token{tokDot, ".", line, col}, nil
	case '(':
		return token{tokLParen, "(", line, col}, nil
	case ')':
		return token{tokRParen, ")", line, col}, nil
	case '[':
		return token{tokLBrack, "[", line, col}, nil
	case ']':
		return token{tokRBrack, "]", line, col}, nil
	case '!':
		return token{tokNot, "!", line, col}, nil
	case '-':
		if c2, ok := l.peekByte(); ok && c2 == '>' {
			l.advance()
			return token{tokArrow, "->", line, col}, nil
		}
		return token{}, l.errorf(line, col, "unexpected character '-' (expected '->')")
	}
	// Token text is a substring of the source: a token allocates nothing.
	if c == '_' {
		if c2, ok := l.peekByte(); ok && c2 == ':' {
			l.advance()
			name := l.identTail()
			if name == "" {
				return token{}, l.errorf(line, col, "empty null name after '_:'")
			}
			return token{tokNull, name, line, col}, nil
		}
	}
	if isIdentStart(c) {
		start := l.pos - 1
		l.identTail()
		text := l.src[start:l.pos]
		switch text {
		case "not":
			return token{tokNot, text, line, col}, nil
		case "exists":
			return token{tokExists, text, line, col}, nil
		}
		first := rune(text[0])
		if first == '?' || first == '_' || unicode.IsUpper(first) {
			name := strings.TrimPrefix(text, "?")
			if name == "" {
				return token{}, l.errorf(line, col, "empty variable name after '?'")
			}
			return token{tokVariable, name, line, col}, nil
		}
		return token{tokIdent, text, line, col}, nil
	}
	return token{}, l.errorf(line, col, "unexpected character %q", string(rune(c)))
}

// identTail consumes the identifier characters at the current position
// and returns them.
func (l *lexer) identTail() string {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.advance()
	}
	return l.src[start:l.pos]
}
