package simserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"llhd"
	"llhd/internal/ir"
	"llhd/internal/logic"
	"llhd/internal/val"
)

// refDelta is the delta line as it was rendered before the append-only
// encoder: reflection-driven json.Marshal of the three-string struct. It
// stays here as the reference every rendering below is held to.
func refDelta(t llhd.Time, sig, v string) []byte {
	line, err := json.Marshal(Delta{T: t.String(), Sig: sig, Val: v})
	if err != nil {
		panic(err)
	}
	return append(line, '\n')
}

// checkDelta holds both renderings of one delta — AppendDelta from
// strings, the deltaEncoder from a signal and a value — to the reference,
// each after a prefix the buffer already holds.
func checkDelta(t testing.TB, enc *deltaEncoder, at llhd.Time, sig *llhd.Signal, v llhd.Value) {
	t.Helper()
	want := append([]byte("prefix\n"), refDelta(at, sig.Name, v.String())...)
	if got := AppendDelta([]byte("prefix\n"), at, sig.Name, v.String()); !bytes.Equal(got, want) {
		t.Errorf("AppendDelta(%+v, %q, %q) =\n %q, json.Marshal gives\n %q", at, sig.Name, v, got, want)
	}
	if got := enc.append([]byte("prefix\n"), at, sig, v); !bytes.Equal(got, want) {
		t.Errorf("deltaEncoder(%+v, %q, %q) =\n %q, json.Marshal gives\n %q", at, sig.Name, v, got, want)
	}
}

func lvec(s string) val.Value {
	v, err := logic.ParseVector(s)
	if err != nil {
		panic(err)
	}
	return val.LogicVal(v)
}

// awkwardNames are signal names encoding/json does not copy through:
// quotes, backslashes, the HTML-sensitive three, control bytes, DEL, the
// two line separators JSON allows but JavaScript does not, non-ASCII, and
// invalid UTF-8.
var awkwardNames = []string{
	"tb.q", "", "top.sub_1.q$2", `a"b`, `a\b`, `\`, `"`, "<script>", "a&b", "x>y",
	"tab\there", "nl\nname", "cr\rname", "\x00", "\x01\x1f", "bell\b\f", "del\x7f",
	"sep\u2028x", "sep\u2029x", "café", "信号", "\U0001F600",
	"bad\xffutf8", "\xc3", "trunc\xe2\x80", "\xed\xa0\x80", "mixed\"<\xff \\",
}

// TestDeltaEncoderMatchesMarshal is the byte-compat table: every awkward
// name at times with delta and epsilon parts, and a value of every kind,
// nested and empty aggregates included (the encoder appends times and
// values bare, so this is also what pins their alphabet as JSON-safe).
func TestDeltaEncoderMatchesMarshal(t *testing.T) {
	times := []llhd.Time{
		{}, ir.Nanoseconds(1), {Fs: 1500}, {Delta: 1}, {Fs: ir.Second, Delta: 2, Eps: 3},
		{Fs: 999 * ir.Millisecond, Eps: 7}, {Fs: 1<<63 - 1, Delta: 1 << 30, Eps: 1 << 30},
	}
	values := []llhd.Value{
		val.Int(1, 1), val.Int(32, 0xDEADBEEF), val.Int(64, ^uint64(0)),
		lvec("UX01ZWLH-"), lvec(""), val.TimeVal(llhd.Time{Fs: 250 * ir.Picosecond, Delta: 1}),
		val.Agg([]val.Value{val.Int(8, 1), val.Int(8, 255)}),
		val.Agg([]val.Value{lvec("01XZ"), val.Agg(nil), val.Agg([]val.Value{val.TimeVal(ir.Nanoseconds(3))})}),
		val.Agg(nil), {Kind: val.Kind(9)},
	}
	var enc deltaEncoder
	for i, name := range awkwardNames {
		sig := &llhd.Signal{ID: i, Name: name}
		for _, at := range times {
			checkDelta(t, &enc, at, sig, values[i%len(values)])
		}
	}
	sig := &llhd.Signal{ID: 3, Name: "tb.v"}
	for _, v := range values {
		checkDelta(t, &enc, times[4], sig, v)
	}
	// A second signal under an ID the table already holds (a trace that
	// mixes engines) must not be rendered under the first one's name.
	checkDelta(t, &enc, times[1], &llhd.Signal{ID: 3, Name: "other.v"}, values[0])
	checkDelta(t, &enc, times[1], sig, values[0])
}

// FuzzAppendDelta holds both renderings to json.Marshal over arbitrary
// names, value strings and times.
func FuzzAppendDelta(f *testing.F) {
	for i, name := range awkwardNames {
		f.Add(int64(i)*1500, i%3, i%2, name, awkwardNames[len(awkwardNames)-1-i], uint64(i))
	}
	f.Fuzz(func(t *testing.T, fs int64, delta, eps int, sig, v string, bits uint64) {
		at := llhd.Time{Fs: fs, Delta: delta, Eps: eps}
		want := refDelta(at, sig, v)
		if got := AppendDelta(nil, at, sig, v); !bytes.Equal(got, want) {
			t.Fatalf("AppendDelta(%+v, %q, %q) =\n %q, json.Marshal gives\n %q", at, sig, v, got, want)
		}
		var enc deltaEncoder
		s := &llhd.Signal{ID: int(bits % 64), Name: sig}
		checkDelta(t, &enc, at, s, val.Int(64, bits))
		checkDelta(t, &enc, at, s, val.Agg([]val.Value{val.TimeVal(at), val.Int(8, bits)}))
	})
}

// TestRenderTraceMatchesMarshal holds the buffered-trace side of the
// stream-equals-serial contract to the reference too.
func TestRenderTraceMatchesMarshal(t *testing.T) {
	a, b := &llhd.Signal{ID: 0, Name: "tb.clk"}, &llhd.Signal{ID: 5, Name: `tb."odd"<name>`}
	o := &llhd.TraceObserver{}
	var want []byte
	for i := 0; i < 6; i++ {
		at, sig, v := llhd.Time{Fs: int64(i) * 500, Delta: i % 2}, a, val.Int(1, uint64(i&1))
		if i%3 == 2 {
			sig, v = b, lvec("01XZ")
		}
		o.OnChange(at, sig, v)
		want = append(want, refDelta(at, sig.Name, v.String())...)
	}
	if got := RenderTrace(o); !bytes.Equal(got, want) {
		t.Errorf("RenderTrace =\n%s\nwant\n%s", got, want)
	}
}

// sinkResponse is a ResponseWriter that records each body Write as one
// chunk and fails from the failAt-th on (negative: never).
type sinkResponse struct {
	header http.Header
	chunks [][]byte
	keep   bool
	failAt int
}

func (s *sinkResponse) Header() http.Header {
	if s.header == nil {
		s.header = http.Header{}
	}
	return s.header
}
func (s *sinkResponse) WriteHeader(int) {}
func (s *sinkResponse) Write(p []byte) (int, error) {
	if s.failAt >= 0 && len(s.chunks) >= s.failAt {
		s.chunks = append(s.chunks, nil)
		return 0, fmt.Errorf("connection reset")
	}
	if s.keep {
		s.chunks = append(s.chunks, bytes.Clone(p))
	}
	return len(p), nil
}

// streamCases are the three signal shapes of the renderer budgets.
var streamCases = []struct {
	name   string
	sig    *llhd.Signal
	values [2]llhd.Value
}{
	{"bit", &llhd.Signal{ID: 0, Name: "tb.clk"}, [2]llhd.Value{val.Int(1, 1), val.Int(1, 0)}},
	{"i32", &llhd.Signal{ID: 1, Name: "tb.dut_1.word"}, [2]llhd.Value{val.Int(32, 0xDEADBEEF), val.Int(32, 7)}},
	{"l8", &llhd.Signal{ID: 2, Name: "tb.dut_1.bus"}, [2]llhd.Value{lvec("01XZWLH-"), lvec("11110000")}},
}

// TestStreamDeltaAllocFree is the NDJSON renderer's allocation budget: a
// streamed delta in steady state — line, threshold flush to the response
// — allocates nothing, for an integer and for a logic-vector signal (7
// per delta when the line went through Time.String, Value.String and
// json.Marshal).
func TestStreamDeltaAllocFree(t *testing.T) {
	obs := streamObserver{&streamWriter{w: &sinkResponse{failAt: -1}}}
	for _, c := range streamCases {
		fs := int64(0)
		step := func() {
			fs += 500
			obs.OnChange(llhd.Time{Fs: fs, Delta: int(fs / 500 & 1)}, c.sig, c.values[fs/500&1])
		}
		for i := 0; i < 4096; i++ { // first sight of the signal, buffer growth, response start
			step()
		}
		if avg := testing.AllocsPerRun(5000, step); avg != 0 {
			t.Errorf("%s: %.2f allocs per streamed delta, want 0", c.name, avg)
		}
	}
	if !obs.sw.started {
		t.Error("the stream never crossed its flush threshold")
	}
}

// TestStreamWriteErrorIsSticky fails the k-th body Write: from then on
// nothing is rendered and the response is never handed another byte, the
// terminal result line included; what was written before ends on a line
// boundary.
func TestStreamWriteErrorIsSticky(t *testing.T) {
	c := streamCases[1]
	for _, k := range []int{0, 1, 3} {
		sink := &sinkResponse{failAt: k, keep: true}
		sw := &streamWriter{w: sink}
		obs := streamObserver{sw}
		for i := 0; i < 20000; i++ {
			obs.OnChange(llhd.Time{Fs: int64(i)}, c.sig, c.values[i&1])
		}
		if sw.err == nil {
			t.Fatalf("k=%d: no error after %d writes", k, len(sink.chunks))
		}
		if len(sink.chunks) != k+1 {
			t.Errorf("k=%d: %d Write calls, want %d (the last one failing)", k, len(sink.chunks), k+1)
		}
		for i, chunk := range sink.chunks[:k] {
			if !bytes.HasSuffix(chunk, []byte("\"}\n")) {
				t.Errorf("k=%d: write %d ends mid-line", k, i)
			}
		}
		sw.finish(Result{Class: ClassOK})
		if len(sink.chunks) != k+1 || len(sw.buf) != 0 {
			t.Errorf("k=%d: finish after the failure wrote again (%d writes, %d bytes buffered)", k, len(sink.chunks), len(sw.buf))
		}
	}
}

// BenchmarkStreamDelta is the NDJSON renderer's inner-loop number (make
// bench-observe): ns and allocs per streamed delta into a discarding
// response.
func BenchmarkStreamDelta(b *testing.B) {
	for _, c := range streamCases {
		b.Run(c.name, func(b *testing.B) {
			obs := streamObserver{&streamWriter{w: &sinkResponse{failAt: -1}}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				obs.OnChange(llhd.Time{Fs: int64(i) * 500}, c.sig, c.values[i&1])
			}
		})
	}
}
