// Package cuneiform implements a minimal Cuneiform-like functional workflow
// language (Brandt et al., "Cuneiform: A Functional Language for Large Scale
// Scientific Data Analysis"), the primary iterative frontend of Hi-WAY.
//
// The language treats every expression as a list of strings, integrates
// foreign code as black-box task definitions, maps task applications over
// list arguments (cartesian product over non-aggregate parameters), and
// supports conditionals and recursion — enough to express unbounded
// iterative workflows such as k-means clustering (§3.3 of the paper).
//
// Grammar (EBNF, '%%' starts a line comment):
//
//	program  = { stmt } .
//	stmt     = deftask | defun | let | target .
//	deftask  = "deftask" ID "(" outs ":" params ")" { attr } "in" ID body .
//	outs     = decl { decl } .
//	params   = { decl } .
//	decl     = ID | "<" ID ">" | "~" ID .          // plain file, aggregate list, value
//	attr     = "@" ID NUMBER | "@" ID ID NUMBER .  // @cpu/@threads/@mem n, @size out n
//	body     = "*{" raw "}*" .
//	defun    = "defun" ID "(" { ID } ")" "{" expr "}" .
//	let      = "let" ID "=" expr ";" .
//	target   = expr ";" .
//	expr     = atom { atom } .                     // juxtaposition = list concat
//	atom     = STRING | "nil" | ID | apply | cond | "(" expr ")" .
//	apply    = ID "(" { ID ":" expr } ")" [ "." ID ] .
//	cond     = "if" expr "then" expr "else" expr "end" .
package cuneiform

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString
	tokNumber
	tokBody   // *{ raw }*
	tokLParen // (
	tokRParen // )
	tokLBrace // {
	tokRBrace // }
	tokColon  // :
	tokSemi   // ;
	tokLt     // <
	tokGt     // >
	tokEq     // =
	tokAt     // @
	tokDot    // .
	tokTilde  // ~
)

var keywords = map[string]bool{
	"deftask": true, "defun": true, "let": true, "in": true,
	"if": true, "then": true, "else": true, "end": true, "nil": true,
}

// punct maps a punctuation byte to its token kind (tokEOF: not punctuation).
var punct = [256]tokenKind{
	'(': tokLParen, ')': tokRParen, '{': tokLBrace, '}': tokRBrace,
	':': tokColon, ';': tokSemi, '<': tokLt, '>': tokGt,
	'=': tokEq, '@': tokAt, '.': tokDot, '~': tokTilde,
}

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("%q", t.text)
	default:
		return t.text
	}
}

// lexer splits source text into tokens.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) errorf(format string, args ...any) error {
	return fmt.Errorf("cuneiform: %d:%d: %s", l.line, l.col, fmt.Sprintf(format, args...))
}

func (l *lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
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

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.advance()
		case c == '%' && l.peek2() == '%':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || c == '-' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	line, col := l.line, l.col
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: line, col: col}, nil
	}
	c := l.peek()
	switch {
	case c == '*' && l.peek2() == '{':
		l.advance()
		l.advance()
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, l.errorf("unterminated task body (missing '}*')")
			}
			if l.peek() == '}' && l.peek2() == '*' {
				l.advance()
				l.advance()
				return token{kind: tokBody, text: strings.TrimSpace(sb.String()), line: line, col: col}, nil
			}
			sb.WriteByte(l.advance())
		}
	case c == '"':
		l.advance()
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, l.errorf("unterminated string literal")
			}
			ch := l.advance()
			if ch == '"' {
				return token{kind: tokString, text: sb.String(), line: line, col: col}, nil
			}
			if ch == '\\' {
				if l.pos >= len(l.src) {
					return token{}, l.errorf("unterminated escape in string literal")
				}
				esc := l.advance()
				switch esc {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case '"', '\\':
					sb.WriteByte(esc)
				default:
					return token{}, l.errorf("unknown escape \\%c", esc)
				}
				continue
			}
			sb.WriteByte(ch)
		}
	case isIdentStart(c):
		var sb strings.Builder
		for l.pos < len(l.src) && isIdentPart(l.peek()) {
			sb.WriteByte(l.advance())
		}
		return token{kind: tokIdent, text: sb.String(), line: line, col: col}, nil
	case unicode.IsDigit(rune(c)):
		var sb strings.Builder
		for l.pos < len(l.src) && (unicode.IsDigit(rune(l.peek())) || l.peek() == '.') {
			sb.WriteByte(l.advance())
		}
		return token{kind: tokNumber, text: sb.String(), line: line, col: col}, nil
	}
	l.advance()
	if k := punct[c]; k != tokEOF {
		return token{kind: k, text: string(c), line: line, col: col}, nil
	}
	return token{}, fmt.Errorf("cuneiform: %d:%d: unexpected character %q", line, col, c)
}

// lexAll tokenizes the whole source.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}
