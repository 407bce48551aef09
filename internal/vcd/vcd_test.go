package vcd

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/logic"
	"llhd/internal/val"
)

// driverProc schedules a fixed list of drives at Init and never wakes.
type driverProc struct {
	engine.ProcHandle
	drives func(e *engine.Engine)
}

func (p *driverProc) Name() string          { return "driver" }
func (p *driverProc) Init(e *engine.Engine) { p.drives(e) }
func (p *driverProc) Wake(e *engine.Engine) {}

func TestHeaderScopesAndDump(t *testing.T) {
	e := engine.New()
	clk := e.NewSignal("tb.clk", ir.IntType(1), val.Int(1, 0))
	e.NewSignal("tb.dut_1.q", ir.IntType(8), val.Int(8, 5))
	e.NewSignal("tb.t", ir.TimeType(), val.TimeVal(ir.Time{})) // unrepresentable: skipped
	var sb strings.Builder
	w := NewWriter(&sb, e)
	e.Observe(w, Signals(e)...)
	e.AddProcess(&driverProc{drives: func(e *engine.Engine) {
		e.Drive(engine.SigRef{Sig: clk}, val.Int(1, 1), ir.Nanoseconds(2))
	}}, true)
	e.Init()
	e.Run(ir.Time{})
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"$timescale 1fs $end",
		"$scope module tb $end",
		"$var wire 1 ! clk $end",
		"$scope module dut_1 $end",
		"$var wire 8 \" q $end",
		"$enddefinitions $end",
		"#0\n$dumpvars\n0!\nb00000101 \"\n$end",
		"#2000000\n1!",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "tb.t") || strings.Contains(out, " t $end") {
		t.Errorf("time-typed signal must be skipped:\n%s", out)
	}
}

func TestLogicRendering(t *testing.T) {
	v, err := logic.ParseVector("1Z0XUH")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(appendBits(nil, val.LogicVal(v), 6)); got != "1z0xx1" {
		t.Errorf("bits = %q, want 1z0xx1", got)
	}
}

func TestIDCode(t *testing.T) {
	if got := idCode(0); got != "!" {
		t.Errorf("idCode(0) = %q", got)
	}
	if got := idCode(93); got != "~" {
		t.Errorf("idCode(93) = %q", got)
	}
	if got := idCode(94); got != "!!" {
		t.Errorf("idCode(94) = %q", got)
	}
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		c := idCode(i)
		if seen[c] {
			t.Fatalf("idCode collision at %d: %q", i, c)
		}
		seen[c] = true
	}
}

// TestDeltaInstantsShareTimestamp checks that changes in later delta steps
// of the same femtosecond reuse the open #t stamp instead of emitting a
// duplicate.
func TestDeltaInstantsShareTimestamp(t *testing.T) {
	e := engine.New()
	s := e.NewSignal("s", ir.IntType(8), val.Int(8, 0))
	var sb strings.Builder
	w := NewWriter(&sb, e)
	e.Observe(w, Signals(e)...)
	e.Init()
	// Two changes at 1ns in consecutive delta steps.
	e.Drive(engine.SigRef{Sig: s}, val.Int(8, 1), ir.Nanoseconds(1))
	e.Step()
	e.Drive(engine.SigRef{Sig: s}, val.Int(8, 2), ir.Time{}) // next delta, same fs
	for e.Step() {
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Count(out, "#1000000\n") != 1 {
		t.Errorf("timestamp #1000000 must appear exactly once:\n%s", out)
	}
	if !strings.Contains(out, "b00000001 !\nb00000010 !") {
		t.Errorf("both delta values must be dumped under one stamp:\n%s", out)
	}
}

// refBits and refChange are the fmt-based renderer the Writer was before
// it went append-only (a []byte and a string per vector, fmt.Fprintf per
// line). They stay here as the reference the streamed bytes are held to.
func refBits(v val.Value, width int) string {
	buf := make([]byte, width)
	switch v.Kind {
	case val.KindInt:
		for i := 0; i < width; i++ {
			buf[width-1-i] = '0' + byte(v.Bits>>uint(i)&1)
		}
	case val.KindLogic:
		lv := v.Logic()
		for i := 0; i < width; i++ {
			c := byte('x')
			if i < len(lv) {
				switch l := lv[i]; {
				case l.IsHigh():
					c = '1'
				case l.IsLow():
					c = '0'
				case l == logic.Z:
					c = 'z'
				}
			}
			buf[width-1-i] = c
		}
	default:
		for i := range buf {
			buf[i] = 'x'
		}
	}
	return string(buf)
}

// refChange renders one change as the parent did; lastFs is the open
// timestamp.
func refChange(sb *strings.Builder, lastFs *int64, t ir.Time, id string, width int, v val.Value) {
	if t.Fs != *lastFs {
		fmt.Fprintf(sb, "#%d\n", t.Fs)
		*lastFs = t.Fs
	}
	if width == 1 && v.Kind == val.KindInt {
		fmt.Fprintf(sb, "%d%s\n", v.Bits&1, id)
		return
	}
	fmt.Fprintf(sb, "b%s %s\n", refBits(v, width), id)
}

func lvec(t testing.TB, s string) val.Value {
	t.Helper()
	v, err := logic.ParseVector(s)
	if err != nil {
		t.Fatal(err)
	}
	return val.LogicVal(v)
}

// TestStreamMatchesReference streams the rows the two golden waveforms
// never reach — nine-valued vectors, a 1-bit logic signal, an enum, a
// 64-bit integer, a logic payload shorter than its signal, a value of the
// wrong kind, and enough signals that identifier codes go to two
// characters — and holds every byte after the header to the fmt-based
// reference. The 40 rounds push the stream through several threshold
// flushes.
func TestStreamMatchesReference(t *testing.T) {
	e := engine.New()
	type row struct {
		sig    *engine.Signal
		width  int
		values []val.Value
	}
	var rows []row
	add := func(name string, ty *ir.Type, width int, values ...val.Value) {
		rows = append(rows, row{e.NewSignal(name, ty, values[0]), width, values})
	}
	add("tb.bit", ir.IntType(1), 1, val.Int(1, 0), val.Int(1, 1))
	add("tb.l1", ir.LogicType(1), 1, lvec(t, "U"), lvec(t, "1"), lvec(t, "Z"), lvec(t, "L"))
	add("tb.l9", ir.LogicType(9), 9, lvec(t, "UX01ZWLH-"), lvec(t, "-HLWZ10XU"), lvec(t, "ZZZZ"))
	add("tb.state", ir.EnumType(5), ir.EnumType(5).BitWidth(), val.Int(3, 0), val.Int(3, 4))
	add("tb.one", ir.EnumType(2), ir.EnumType(2).BitWidth(), val.Int(1, 0), val.Int(1, 1))
	add("tb.wide", ir.IntType(64), 64, val.Int(64, 0), val.Int(64, ^uint64(0)), val.Int(64, 0x8000000000000001))
	add("tb.word", ir.IntType(32), 32, val.Int(32, 0), val.Int(32, 0xDEADBEEF), val.TimeVal(ir.Nanoseconds(1)))
	e.NewSignal("tb.t", ir.TimeType(), val.TimeVal(ir.Time{})) // never dumped
	for i := 0; i < 120; i++ {
		add(fmt.Sprintf("tb.lane_%d.q", i), ir.IntType(8), 8, val.Int(8, 0), val.Int(8, uint64(i)), val.Int(8, 255))
	}

	var sb strings.Builder
	w := NewWriter(&sb, e)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	header := sb.Len()
	if !strings.Contains(sb.String(), "$var wire 8 !! q $end") {
		t.Fatalf("no two-character identifier code in the header:\n%s", sb.String())
	}

	var want strings.Builder
	lastFs := int64(0)
	for round := 0; round < 40; round++ {
		at := ir.Time{Fs: int64(round/2) * 1500, Delta: round % 2}
		for i, r := range rows {
			v := r.values[(round+i)%len(r.values)]
			w.OnChange(at, r.sig, v)
			refChange(&want, &lastFs, at, idCode(i), r.width, v)
		}
	}
	if sb.Len() == header {
		t.Error("nothing reached the writer before Flush: the size threshold never fired")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := sb.String()[header:]; got != want.String() {
		t.Errorf("streamed changes differ from the fmt-based reference:\n got %q\nwant %q", clip(got), clip(want.String()))
	}
}

func clip(s string) string {
	if len(s) > 400 {
		return s[:400] + "..."
	}
	return s
}

// chunkWriter records each Write as one chunk and fails from the k-th on.
type chunkWriter struct {
	chunks []string
	failAt int // index of the first Write that fails; negative: never
}

func (c *chunkWriter) Write(p []byte) (int, error) {
	if c.failAt >= 0 && len(c.chunks) >= c.failAt {
		c.chunks = append(c.chunks, "")
		return 0, fmt.Errorf("disk full")
	}
	c.chunks = append(c.chunks, string(p))
	return len(p), nil
}

// TestWritesEndOnLineBoundaries: the buffer only ever holds whole lines,
// so every chunk handed to the underlying writer — threshold flushes
// included — ends with a newline. This is what keeps the waveform of a
// poisoned session well-formed up to the failure instant.
func TestWritesEndOnLineBoundaries(t *testing.T) {
	e := engine.New()
	s := e.NewSignal("tb.word", ir.IntType(32), val.Int(32, 0))
	cw := &chunkWriter{failAt: -1}
	w := NewWriter(cw, e)
	for i := 0; i < 5000; i++ {
		w.OnChange(ir.Time{Fs: int64(i)}, s, val.Int(32, uint64(i)))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(cw.chunks) < 3 {
		t.Fatalf("%d writes for %d changes: the size threshold never fired", len(cw.chunks), 5000)
	}
	for i, c := range cw.chunks {
		if !strings.HasSuffix(c, "\n") {
			t.Errorf("write %d ends mid-line: %q", i, c[len(c)-min(len(c), 40):])
		}
	}
}

// TestWriteErrorIsSticky fails the k-th Write: Flush reports the error
// from then on, and the writer is never handed another byte.
func TestWriteErrorIsSticky(t *testing.T) {
	for _, k := range []int{0, 1, 2} {
		e := engine.New()
		s := e.NewSignal("tb.word", ir.IntType(32), val.Int(32, 0))
		cw := &chunkWriter{failAt: k}
		w := NewWriter(cw, e)
		var err error
		for i := 0; i < 20000 && err == nil; i++ {
			w.OnChange(ir.Time{Fs: int64(i)}, s, val.Int(32, uint64(i)))
			if i%1000 == 999 {
				err = w.Flush()
			}
		}
		if err == nil {
			t.Fatalf("k=%d: no error after %d writes", k, len(cw.chunks))
		}
		writes := len(cw.chunks)
		if writes != k+1 {
			t.Errorf("k=%d: %d Write calls up to the failure, want %d", k, writes, k+1)
		}
		for i := 0; i < 20000; i++ {
			w.OnChange(ir.Time{Fs: int64(i)}, s, val.Int(32, 1))
		}
		if again := w.Flush(); again != err {
			t.Errorf("k=%d: Flush after the failure = %v, want the first error %v", k, again, err)
		}
		if len(cw.chunks) != writes {
			t.Errorf("k=%d: %d more Write calls after the failure", k, len(cw.chunks)-writes)
		}
		if len(w.buf) != 0 {
			t.Errorf("k=%d: %d bytes still buffered after the failure", k, len(w.buf))
		}
	}
}

// changeCases are the three signal shapes of the renderer budgets: a
// scalar bit, an integer vector, a nine-valued vector.
func changeCases(tb testing.TB) (*engine.Engine, []changeCase) {
	e := engine.New()
	return e, []changeCase{
		{"bit", e.NewSignal("tb.clk", ir.IntType(1), val.Int(1, 0)), [2]val.Value{val.Int(1, 1), val.Int(1, 0)}},
		{"i32", e.NewSignal("tb.word", ir.IntType(32), val.Int(32, 0)), [2]val.Value{val.Int(32, 0xDEADBEEF), val.Int(32, 7)}},
		{"l8", e.NewSignal("tb.bus", ir.LogicType(8), lvec(tb, "UUUUUUUU")), [2]val.Value{lvec(tb, "01XZWLH-"), lvec(tb, "11110000")}},
	}
}

type changeCase struct {
	name   string
	sig    *engine.Signal
	values [2]val.Value
}

// TestVCDChangeAllocFree is the renderer's allocation budget, next to the
// kernel's: a change in steady state — timestamp line, value line,
// threshold flushes — allocates nothing, for a scalar, an integer vector
// and a logic vector (4 per vector change and 1 per scalar change before
// the Writer went append-only).
func TestVCDChangeAllocFree(t *testing.T) {
	e, cases := changeCases(t)
	w := NewWriter(io.Discard, e)
	for _, c := range cases {
		fs := int64(0)
		step := func() {
			fs++
			w.OnChange(ir.Time{Fs: fs}, c.sig, c.values[fs&1])
		}
		for i := 0; i < 4096; i++ { // let the buffer reach its steady capacity
			step()
		}
		if avg := testing.AllocsPerRun(5000, step); avg != 0 {
			t.Errorf("%s: %.2f allocs per change, want 0", c.name, avg)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkVCDChange is the renderer's inner-loop number (make
// bench-observe): ns and allocs per streamed change, each under its own
// timestamp, into a discarding writer.
func BenchmarkVCDChange(b *testing.B) {
	e, cases := changeCases(b)
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			w := NewWriter(io.Discard, e)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.OnChange(ir.Time{Fs: int64(i)}, c.sig, c.values[i&1])
			}
			if err := w.Flush(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
