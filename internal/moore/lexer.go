// Package moore implements the Moore compiler frontend (§3 of the paper):
// a SystemVerilog subset sufficient for the designs of the evaluation —
// modules with parameters, always_ff/always_comb/always/initial processes,
// continuous assigns, functions, testbench constructs (delays, loops,
// assertions, $display/$finish), packed vectors, and unpacked arrays for
// memories and register files. Compile maps source text to Behavioural
// LLHD, the analog of "Clang and LLVM" for hardware (§3).
//
// Source is read as bytes: identifiers, keywords and numbers are ASCII,
// and a byte of 0x80 or above outside a string or a comment is an
// "unexpected character" error that names the UTF-8 character it starts.
// The lexer classifies bytes by table and operators by their first byte;
// the frontend formats nothing and builds no map per token, expression or
// type (TestMooreCompileAllocRatchet holds its allocations).
//
// Code generation decides each thing once. One Inspect walk per process
// (summarize) finds the nets it reads and writes, the arrays it owns and
// the nets it assigns blocking. An assignment resolves its target's name
// to one place (placeOf): a var slot, which is a local, the function's
// own name or a blocking shadow, or a net the process drives; the whole,
// bit, part, +: and concat shapes then only splice into that place. An
// edge-triggered block is forever @(edges) body, through the same event
// wait an @(...) statement uses. An open or tied port of an instance
// takes its width from the elaborated child's signature.
package moore

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

type tokenKind uint8

const (
	tEOF tokenKind = iota
	tIdent
	tNumber // 42, 8'hFF, 4'b1010, '0, '1
	tString
	tSystem // $display, $finish
	tPunct  // operators and punctuation
	tTime   // 1ns, 250ps
)

type token struct {
	kind tokenKind
	text string
	line int
}

func (t token) String() string {
	if t.kind == tEOF {
		return "end of file"
	}
	return fmt.Sprintf("%q", t.text)
}

type lexer struct {
	src  string
	pos  int
	line int
	toks []token
}

// multi-character operators, longest first.
var operators = []string{
	"<<<", ">>>", "===", "!==", "<->", "+:",
	"<=", ">=", "==", "!=", "&&", "||", "<<", ">>", "++", "--",
	"+=", "-=", "*=", "/=", "->", "::", ".*",
	"+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">",
	"=", "?", ":", ";", ",", ".", "#", "@", "(", ")", "[", "]", "{", "}", "'",
}

// opsByFirst holds the operators per first byte, longest first.
var opsByFirst [256][]string

// Byte classes. SystemVerilog identifiers, numbers and keywords are
// ASCII; a byte of 0x80 or above is only legal inside a string or a
// comment.
const (
	cIdentStart uint8 = 1 << iota // a-z A-Z _
	cIdentChar                    // identifier start, 0-9 or $
	cDigit                        // 0-9
	cLetter                       // a-z A-Z (time-unit suffixes)
	cBasedDigit                   // digits of a based literal: 0-9 a-f A-F x X z Z
)

var byteClass [256]uint8

func init() {
	for _, op := range operators {
		opsByFirst[op[0]] = append(opsByFirst[op[0]], op)
	}
	for c := 0; c < 256; c++ {
		var k uint8
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
			k = cIdentStart | cIdentChar | cLetter
		case c == '_':
			k = cIdentStart | cIdentChar
		case c >= '0' && c <= '9':
			k = cIdentChar | cDigit | cBasedDigit
		case c == '$':
			k = cIdentChar
		}
		switch c {
		case 'a', 'b', 'c', 'd', 'e', 'f', 'A', 'B', 'C', 'D', 'E', 'F', 'x', 'X', 'z', 'Z':
			k |= cBasedDigit
		}
		byteClass[c] = k
	}
}

func lex(src string) ([]token, error) {
	// The designs in the tree run at 3.3 to 5.7 source bytes per token.
	l := &lexer{src: src, line: 1, toks: make([]token, 0, len(src)/3+1)}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.at(1) == '/':
			end := strings.IndexByte(l.src[l.pos:], '\n')
			if end < 0 {
				end = len(l.src) - l.pos
			}
			l.pos += end
		case c == '/' && l.at(1) == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				return nil, fmt.Errorf("line %d: unterminated block comment", l.line)
			}
			l.line += strings.Count(l.src[l.pos:l.pos+2+end+2], "\n")
			l.pos += 2 + end + 2
		case c == '"':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case c == '$':
			start := l.pos
			l.pos++
			l.skip(cIdentChar)
			l.emit(tSystem, l.src[start:l.pos])
		case byteClass[c]&cDigit != 0:
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
		case byteClass[c]&cIdentStart != 0:
			start := l.pos
			l.skip(cIdentChar)
			l.emit(tIdent, l.src[start:l.pos])
		case c == '\'':
			// '0, '1, or 'h3F (unsized based literal), or the tick in
			// 8'hFF handled by lexNumber; standalone tick starts a fill
			// literal or an unpacked-array literal '{.
			if n := l.at(1); (n == '0' || n == '1') && byteClass[l.at(2)]&cIdentChar == 0 {
				l.emit(tNumber, l.src[l.pos:l.pos+2])
				l.pos += 2
			} else if n == '{' {
				l.emit(tPunct, "'{")
				l.pos += 2
			} else {
				l.emit(tPunct, "'")
				l.pos++
			}
		default:
			if err := l.lexOperator(c); err != nil {
				return nil, err
			}
		}
	}
	l.emit(tEOF, "")
	return l.toks, nil
}

// at returns the byte i past the current position, 0 past the end.
func (l *lexer) at(i int) byte {
	if l.pos+i < len(l.src) {
		return l.src[l.pos+i]
	}
	return 0
}

// skip advances over bytes of class k.
func (l *lexer) skip(k uint8) {
	for l.pos < len(l.src) && byteClass[l.src[l.pos]]&k != 0 {
		l.pos++
	}
}

func (l *lexer) emit(kind tokenKind, text string) {
	l.toks = append(l.toks, token{kind: kind, text: text, line: l.line})
}

// lexOperator emits the longest operator starting with c. Any other byte
// is an error that names the character, decoded as UTF-8.
func (l *lexer) lexOperator(c byte) error {
	for _, op := range opsByFirst[c] {
		if strings.HasPrefix(l.src[l.pos:], op) {
			l.emit(tPunct, op)
			l.pos += len(op)
			return nil
		}
	}
	_, size := utf8.DecodeRuneInString(l.src[l.pos:])
	return fmt.Errorf("line %d: unexpected character %q", l.line, l.src[l.pos:l.pos+size])
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	for l.pos < len(l.src) && l.src[l.pos] != '"' {
		if l.src[l.pos] == '\\' {
			l.pos++
		}
		l.pos++
	}
	if l.pos >= len(l.src) {
		return fmt.Errorf("line %d: unterminated string", l.line)
	}
	l.pos++ // closing quote
	l.emit(tString, l.src[start:l.pos])
	return nil
}

// lexNumber handles decimal, sized based (8'hFF, 4'b1010), and time
// literals (1ns, 500ps).
func (l *lexer) lexNumber() error {
	start := l.pos
	for l.pos < len(l.src) && (byteClass[l.src[l.pos]]&cDigit != 0 || l.src[l.pos] == '_') {
		l.pos++
	}
	// Time suffix?
	if byteClass[l.at(0)]&cLetter != 0 {
		sufStart := l.pos
		l.skip(cLetter)
		switch l.src[sufStart:l.pos] {
		case "fs", "ps", "ns", "us", "ms", "s":
			l.emit(tTime, l.src[start:l.pos])
			return nil
		default:
			return fmt.Errorf("line %d: malformed literal %q", l.line, l.src[start:l.pos])
		}
	}
	// Based literal: 8'hFF.
	if l.at(0) == '\'' {
		l.pos++
		if s := l.at(0); s == 's' || s == 'S' {
			l.pos++ // signed marker
		}
		if l.pos >= len(l.src) {
			return fmt.Errorf("line %d: truncated based literal", l.line)
		}
		base := l.src[l.pos]
		switch base {
		case 'h', 'H', 'b', 'B', 'd', 'D', 'o', 'O':
			l.pos++
			for l.pos < len(l.src) && (byteClass[l.src[l.pos]]&cBasedDigit != 0 || l.src[l.pos] == '_') {
				l.pos++
			}
		default:
			return fmt.Errorf("line %d: unknown base %q", l.line, string(base))
		}
	}
	l.emit(tNumber, l.src[start:l.pos])
	return nil
}
