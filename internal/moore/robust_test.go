package moore

import (
	"strings"
	"testing"
	"time"
	"unicode"

	"llhd/internal/designs"
)

// hangInput is the truncated localparam that span ParseFile forever
// before the two data-type skippers became one with an EOF guard.
const hangInput = "module m;\n  localparam logic ["

// parseWithin parses src on its own goroutine and fails the test when no
// answer comes within the budget: a hang is a failure, not a stalled run.
// The file, when there is one, is walked so that a malformed tree cannot
// hide behind a parser that returned.
func parseWithin(t *testing.T, src string, budget time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		file, err := ParseFile(src)
		if (file == nil) == (err == nil) {
			t.Errorf("ParseFile returned file %v and error %v", file != nil, err)
		}
		if file != nil {
			Inspect(file, func(Node) bool { return true })
		}
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(budget):
		t.Fatalf("ParseFile still running after %v on %q", budget, src)
		return nil
	}
}

func TestParseTruncatedLocalparam(t *testing.T) {
	err := parseWithin(t, hangInput, time.Second)
	if err == nil || !strings.HasPrefix(err.Error(), "line 2:") {
		t.Errorf("ParseFile(%q) = %v, want a line 2 error", hangInput, err)
	}
}

// TestParseTruncatedPrefixes cuts gray.sv at every token boundary: each
// prefix is an error (or, where a module just closed, a file) within a
// second, never a panic or a hang.
func TestParseTruncatedPrefixes(t *testing.T) {
	d, err := designs.ByName("gray")
	if err != nil {
		t.Fatal(err)
	}
	word := func(c byte) bool { return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) }
	cuts := 0
	for i := 1; i < len(d.Source); i++ {
		if word(d.Source[i-1]) && word(d.Source[i]) {
			continue
		}
		cuts++
		if err := parseWithin(t, d.Source[:i], time.Second); err != nil && !strings.HasPrefix(err.Error(), "line ") {
			t.Errorf("prefix of %d bytes: error %q carries no line", i, err)
		}
	}
	if cuts < 36 {
		t.Errorf("only %d prefixes tried", cuts)
	}
}

// FuzzMooreParse: any input is a file or an error, soon, and the file
// can be walked. Seeds are the ten Table 2 sources, the RV32I core and
// the input that used to hang.
func FuzzMooreParse(f *testing.F) {
	for _, d := range designs.All() {
		f.Add(d.Source)
	}
	f.Add(designs.RV32I("rv32i.hex").Source)
	f.Add(hangInput)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("nesting depth is bounded by input size; keep the goroutine stack small")
		}
		parseWithin(t, src, 5*time.Second)
	})
}
