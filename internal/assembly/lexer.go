package assembly

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokLocal  // %name or %123
	tokGlobal // @name
	tokNumber // 123
	tokTime   // 1ns, 250ps, 2d, 3e (unit-suffixed number)
	tokLParen
	tokRParen
	tokLBrack
	tokRBrack
	tokLBrace
	tokRBrace
	tokComma
	tokEquals
	tokArrow
	tokColon
	tokStar
	tokDollar
	tokX      // the "x" in [4 x i8]
	tokString // "01XZ": quoted logic-vector literal
)

type token struct {
	kind tokKind
	text string
	line int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

// Names, keywords and numbers are ASCII; a byte of 0x80 or above is only
// legal inside a string or a comment.

func isLetter(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool { return c == '_' || c == '.' || isLetter(c) }

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

func (l *lexer) next() (token, error) {
	// Skip whitespace and ; comments.
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\n' {
			l.line++
			l.pos++
		} else if c == ' ' || c == '\t' || c == '\r' {
			l.pos++
		} else if c == ';' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		} else {
			break
		}
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: l.line}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	mk := func(kind tokKind) (token, error) {
		return token{kind: kind, text: l.src[start:l.pos], line: l.line}, nil
	}
	switch {
	case c == '(':
		l.pos++
		return mk(tokLParen)
	case c == ')':
		l.pos++
		return mk(tokRParen)
	case c == '[':
		l.pos++
		return mk(tokLBrack)
	case c == ']':
		l.pos++
		return mk(tokRBrack)
	case c == '{':
		l.pos++
		return mk(tokLBrace)
	case c == '}':
		l.pos++
		return mk(tokRBrace)
	case c == ',':
		l.pos++
		return mk(tokComma)
	case c == '=':
		l.pos++
		return mk(tokEquals)
	case c == ':':
		l.pos++
		return mk(tokColon)
	case c == '*':
		l.pos++
		return mk(tokStar)
	case c == '$':
		l.pos++
		return mk(tokDollar)
	case c == '-':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '>' {
			l.pos += 2
			return mk(tokArrow)
		}
		// Negative number.
		l.pos++
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
		return mk(tokNumber)
	case c == '"':
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] != '"' && l.src[l.pos] != '\n' {
			l.pos++
		}
		if l.pos >= len(l.src) || l.src[l.pos] != '"' {
			return token{}, fmt.Errorf("line %d: unterminated string literal", l.line)
		}
		tok := token{kind: tokString, text: l.src[start+1 : l.pos], line: l.line}
		l.pos++
		return tok, nil
	case c == '%':
		l.pos++
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		tok := token{kind: tokLocal, text: l.src[start+1 : l.pos], line: l.line}
		return tok, nil
	case c == '@':
		l.pos++
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		tok := token{kind: tokGlobal, text: l.src[start+1 : l.pos], line: l.line}
		return tok, nil
	case isDigit(c):
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
		// A unit suffix turns the number into a time atom: 1ns, 2d, 3e.
		sufStart := l.pos
		for l.pos < len(l.src) && isLetter(l.src[l.pos]) {
			l.pos++
		}
		suffix := l.src[sufStart:l.pos]
		switch suffix {
		case "":
			return mk(tokNumber)
		case "fs", "ps", "ns", "us", "ms", "s", "d", "e":
			return mk(tokTime)
		default:
			return token{}, fmt.Errorf("line %d: malformed numeric literal %q", l.line, l.src[start:l.pos])
		}
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		text := l.src[start:l.pos]
		if text == "x" {
			return token{kind: tokX, text: text, line: l.line}, nil
		}
		return token{kind: tokIdent, text: text, line: l.line}, nil
	default:
		_, size := utf8.DecodeRuneInString(l.src[l.pos:])
		return token{}, fmt.Errorf("line %d: unexpected character %q", l.line, l.src[l.pos:l.pos+size])
	}
}

// tokenize lexes the whole input up front.
func tokenize(src string) ([]token, error) {
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

// isTypeIdent reports whether the identifier begins a type.
func isTypeIdent(s string) bool {
	switch s {
	case "void", "time":
		return true
	}
	if len(s) >= 2 && (s[0] == 'i' || s[0] == 'n' || s[0] == 'l') {
		rest := s[1:]
		if rest == "" {
			return false
		}
		return strings.IndexFunc(rest, func(r rune) bool { return r < '0' || r > '9' }) < 0
	}
	return false
}
