package moore

import (
	"fmt"
	"testing"
)

// TestLexIdentifierBytes runs every byte value through the lexer, at the
// start of a token and after an identifier. Identifiers are ASCII: a
// letter or '_' starts one, a letter, digit, '_' or '$' continues it, and
// a byte of 0x80 or above is an error outside strings and comments.
func TestLexIdentifierBytes(t *testing.T) {
	for b := 0; b < 256; b++ {
		c := byte(b)
		letter := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
		start := letter || c == '_'
		part := start || c >= '0' && c <= '9' || c == '$'

		toks, err := lex(string([]byte{c}))
		if got := err == nil && toks[0].kind == tIdent; got != start {
			t.Errorf("byte %#02x: starts an identifier = %v, want %v", c, got, start)
		}

		src := string([]byte{'a', c})
		toks, err = lex(src)
		switch {
		case c >= 0x80:
			want := fmt.Sprintf("line 1: unexpected character %q", src[1:])
			if err == nil || err.Error() != want {
				t.Errorf("lex(%q) = %v, want %s", src, err, want)
			}
		case part:
			if err != nil || toks[0].kind != tIdent || toks[0].text != src {
				t.Errorf("lex(%q) = %v, %v, want the one identifier %q", src, toks, err, src)
			}
		case err == nil && toks[0].text != "a":
			t.Errorf("lex(%q) starts with %q, want the identifier \"a\"", src, toks[0].text)
		}
	}
	if _, err := lex("// é\n/* – */ \"ª\""); err != nil {
		t.Errorf("UTF-8 in comments and strings: %v", err)
	}
}
