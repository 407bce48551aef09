package bitcode_test

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"llhd/internal/assembly"
	"llhd/internal/bitcode"
	"llhd/internal/designs"
	"llhd/internal/ir"
	"llhd/internal/moore"
)

const sample = `
entity @top () -> () {
  %z1 = const i1 0
  %z32 = const i32 0
  %clk = sig i1 %z1
  %q = sig i32 %z32
  inst @ff (i1$ %clk) -> (i32$ %q)
}
entity @ff (i1$ %clk) -> (i32$ %q) {
  %delay = const time 1ns
  %one = const i32 1
  %clkp = prb i1$ %clk
  %qp = prb i32$ %q
  %qn = add i32 %qp, %one
  reg i32$ %q, %qn rise %clkp after %delay
}
func @f (i32 %a, i1 %c) i32 {
 entry:
  %one = const i32 1
  br %c, %no, %yes
 yes:
  %r = add i32 %a, %one
  ret i32 %r
 no:
  ret i32 %a
}
`

func TestRoundTrip(t *testing.T) {
	m1 := assembly.MustParse("sample", sample)
	data, err := bitcode.Encode(m1)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	m2, err := bitcode.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	a, b := assembly.String(m1), assembly.String(m2)
	if a != b {
		t.Errorf("round trip changed the module:\n--- before ---\n%s\n--- after ---\n%s", a, b)
	}
	if err := ir.Verify(m2, ir.Behavioural); err != nil {
		t.Errorf("decoded module invalid: %v", err)
	}
}

func TestRoundTripAllDesigns(t *testing.T) {
	for _, d := range designs.All() {
		t.Run(d.Name, func(t *testing.T) {
			m1, err := moore.Compile(d.Name, d.Source)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			data, err := bitcode.Encode(m1)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			m2, err := bitcode.Decode(data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if assembly.String(m1) != assembly.String(m2) {
				t.Error("round trip changed the module")
			}
			// Bitcode must be much smaller than the assembly text (§6.3).
			text := len(assembly.String(m1))
			if len(data) >= text {
				t.Errorf("bitcode (%d B) not smaller than text (%d B)", len(data), text)
			}
		})
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := bitcode.Decode([]byte("not bitcode")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := bitcode.Decode([]byte{'L', 'L', 'H', 'D', 1, 0xFF, 0xFF}); err == nil {
		t.Error("truncated payload accepted")
	}
}

// TestDecodeSurvivesByteFlips overwrites every offset of an encoded
// Table 2 module (the rr_arbiter golden) with 0x40, 0x7f and 0xff in turn:
// Decode returns a module or an error, never a panic (which, inside the
// design cache's single-flight leader, would block every later request
// for the design).
func TestDecodeSurvivesByteFlips(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "rr_arbiter.bc"))
	if err != nil {
		t.Fatal(err)
	}
	mut := make([]byte, len(data))
	for off := range data {
		for _, b := range []byte{0x40, 0x7f, 0xff} {
			copy(mut, data)
			mut[off] = b
			decodeNoPanic(t, mut)
		}
	}
}

// decodeNoPanic decodes data and fails the test if Decode panics.
func decodeNoPanic(t *testing.T, data []byte) *ir.Module {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Decode panicked on %d bytes: %v\ninput: %x", len(data), r, data)
		}
	}()
	m, err := bitcode.Decode(data)
	if (m == nil) == (err == nil) {
		t.Fatalf("Decode returned module %v and error %v", m != nil, err)
	}
	return m
}

// malformedShapes are decodable artifacts whose instructions have a shape
// no consumer expects: what the decoder, generic over opcodes, lets
// through and ir.CheckShape is there to stop. Each crashed llhd-sim with a
// goroutine dump before sessions ran CheckShape.
func malformedShapes(t testing.TB) [][]byte {
	base := func() (*ir.Module, *ir.Block) {
		m := assembly.MustParse("m", `
entity @top () -> () {
  inst @p () -> ()
}
proc @p () -> () {
 entry:
  %k = const i8 1
  halt
}`)
		return m, m.Unit("p").Entry()
	}
	var out [][]byte
	add := func(edit func(m *ir.Module, b *ir.Block, k ir.Value)) {
		m, b := base()
		edit(m, b, b.Insts[0])
		data, err := bitcode.Encode(m)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		out = append(out, data)
	}
	insert := func(b *ir.Block, in *ir.Inst) { b.InsertBefore(in, b.Terminator()) }
	add(func(_ *ir.Module, b *ir.Block, _ ir.Value) { insert(b, &ir.Inst{Op: ir.OpNot, Ty: ir.IntType(8)}) })
	add(func(_ *ir.Module, b *ir.Block, _ ir.Value) { insert(b, &ir.Inst{Op: ir.OpExtF, Ty: ir.IntType(8)}) })
	add(func(_ *ir.Module, b *ir.Block, _ ir.Value) { insert(b, &ir.Inst{Op: ir.OpInvalid, Ty: ir.VoidType()}) })
	add(func(_ *ir.Module, b *ir.Block, _ ir.Value) { insert(b, &ir.Inst{Op: 200, Ty: ir.VoidType()}) })
	add(func(m *ir.Module, _ *ir.Block, _ ir.Value) { m.Unit("top").Body().Insts[0].NumIns = 7 })
	return out
}

// TestMalformedShapesAreShapeErrors: the five shapes decode, and
// CheckShape is what rejects them.
func TestMalformedShapesAreShapeErrors(t *testing.T) {
	for i, data := range malformedShapes(t) {
		m, err := bitcode.Decode(data)
		if err != nil {
			t.Fatalf("shape %d: Decode: %v", i, err)
		}
		if err := ir.CheckShape(m); err == nil {
			t.Errorf("shape %d passes CheckShape:\n%s", i, assembly.String(m))
		}
	}
}

// FuzzBitcodeDecode feeds Decode arbitrary bytes, seeded with the
// rr_arbiter golden and the malformed shapes: no panic, and allocation in
// proportion to the input (a decoded instruction is a few hundred bytes of
// IR for a payload of twenty or so; a count taken on trust would allocate
// gigabytes). Whatever decodes goes on to ir.CheckShape, the first thing
// every session does with it, and whatever passes that must print and
// re-encode: between them the two checks leave no count or opcode for a
// consumer to index on trust.
func FuzzBitcodeDecode(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "rr_arbiter.bc"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add([]byte{'L', 'L', 'H', 'D', 2, 0})
	for _, data := range malformedShapes(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := decodeNoPanic(t, data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+1024*len(data)); got > limit {
			t.Fatalf("Decode of %d bytes allocated %d bytes (limit %d)", len(data), got, limit)
		}
		if m == nil {
			return
		}
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic past Decode on %d bytes: %v\ninput: %x", len(data), r, data)
			}
		}()
		if ir.CheckShape(m) != nil {
			return
		}
		_ = assembly.String(m)
		if _, err := bitcode.Encode(m); err != nil {
			t.Fatalf("re-encoding a decoded module: %v", err)
		}
	})
}
