package oracle

import (
	"cmp"
	"slices"
	"strings"
	"testing"

	"llhd"
	"llhd/internal/assembly"
	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/val"
)

// change is one trace entry written by hand: a time in fs and deltas, a
// signal name and an 8-bit value.
type change struct {
	fs    int64
	delta int
	name  string
	v     uint64
}

// trace builds a trace of hand-written changes; signals of one name are
// one *Signal, as in a run.
func trace(changes ...change) *llhd.TraceObserver {
	e := engine.New()
	sigs := map[string]*engine.Signal{}
	o := &llhd.TraceObserver{}
	for _, c := range changes {
		s, ok := sigs[c.name]
		if !ok {
			s = e.NewSignal(c.name, ir.IntType(8), val.Int(8, 0))
			sigs[c.name] = s
		}
		o.Entries = append(o.Entries, llhd.TraceEntry{
			Time: ir.Time{Fs: c.fs, Delta: c.delta}, Sig: s, Value: val.Int(8, c.v)})
	}
	return o
}

// TestDiff holds the delta-exact comparator to its four outcomes: equal
// traces, and a first divergence in a value, in a time, or in length.
func TestDiff(t *testing.T) {
	base := []change{{0, 1, "top.a", 1}, {1000, 0, "top.b", 2}, {2000, 1, "top.a", 3}}
	with := func(i int, c change) []change {
		out := slices.Clone(base)
		out[i] = c
		return out
	}
	for _, tc := range []struct {
		name string
		b    []change
		want string
	}{
		{"equal", base, ""},
		{"both empty", nil, ""},
		{"value", with(1, change{1000, 0, "top.b", 7}),
			`a vs b: traces diverge at entry 1: "1ps top.b=2" vs "1ps top.b=7"`},
		{"time", with(2, change{2000, 2, "top.a", 3}),
			`a vs b: traces diverge at entry 2: "2ps 1d top.a=3" vs "2ps 2d top.a=3"`},
		{"signal", with(0, change{0, 1, "top.b", 1}),
			`a vs b: traces diverge at entry 0: "0s 1d top.a=1" vs "0s 1d top.b=1"`},
		{"length", append(slices.Clone(base), change{3000, 0, "top.b", 0}),
			"a vs b: trace lengths differ: 3 vs 4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := base
			if tc.b == nil {
				a = nil
			}
			if got := Diff("a", trace(a...), "b", trace(tc.b...)); got != tc.want {
				t.Errorf("Diff = %q, want %q", got, tc.want)
			}
		})
	}
}

// settledTop is the top entity the DiffSettled rows run against: a and b
// start at 0, c at cInit, and r is the target of a reg.
func settledTop(t *testing.T, cInit int) *ir.Module {
	t.Helper()
	src := strings.ReplaceAll(`
entity @top () -> () {
  %z = const i8 0
  %ci = const i8 CINIT
  %d = const time 1ns
  %a = sig i8 %z
  %b = sig i8 %z
  %c = sig i8 %ci
  %r = sig i8 %z
  %one = const i1 1
  reg i8$ %r, %z rise %one after %d
}
`, "CINIT", string(rune('0'+cInit)))
	m, err := assembly.Parse("settled", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m
}

// TestDiffSettled holds the lowering comparator to what it may and may
// not forgive: delta-level transients and glitches within one instant, a
// time-zero drive folded into an initializer and the targets of reg
// instructions are not differences; a settled value, a settled change
// more or less, and an empty comparison are.
func TestDiffSettled(t *testing.T) {
	// plain starts c at 5; zero starts it at 0, the form before a pass
	// folded a time-zero drive of 5 into the initializer.
	plain, zero := settledTop(t, 5), settledTop(t, 0)
	for _, tc := range []struct {
		name   string
		ma, mb *ir.Module // nil: plain
		a, b   []change
		want   string // a substring of the difference; "": none
	}{
		{name: "equal",
			a: []change{{1000, 1, "top.a", 1}, {2000, 1, "top.b", 2}},
			b: []change{{1000, 1, "top.a", 1}, {2000, 1, "top.b", 2}}},
		{name: "delta transients",
			a: []change{{1000, 1, "top.a", 1}},
			b: []change{{1000, 1, "top.a", 9}, {1000, 2, "top.a", 1}}},
		{name: "glitch that settles back",
			a: []change{{1000, 1, "top.a", 1}},
			b: []change{{1000, 1, "top.a", 1}, {2000, 1, "top.a", 4}, {2000, 3, "top.a", 1}}},
		{name: "time-zero drive folded into the initializer", ma: zero,
			a: []change{{0, 1, "top.c", 5}, {1000, 1, "top.c", 6}},
			b: []change{{1000, 1, "top.c", 6}}},
		{name: "reg target skipped",
			a: []change{{1000, 1, "top.r", 1}},
			b: []change{{1000, 2, "top.r", 2}}},
		{name: "settled value",
			a:    []change{{1000, 1, "top.a", 1}, {2000, 1, "top.a", 2}},
			b:    []change{{1000, 1, "top.a", 1}, {2000, 1, "top.a", 3}},
			want: `signal top.a settled waveforms diverge at 2: "2000fs 2" vs "2000fs 3"`},
		{name: "settled time",
			a:    []change{{1000, 1, "top.b", 1}},
			b:    []change{{2000, 1, "top.b", 1}},
			want: `signal top.b settled waveforms diverge at 1: "1000fs 1" vs "2000fs 1"`},
		{name: "settled length",
			a:    []change{{1000, 1, "top.a", 1}},
			b:    []change{{1000, 1, "top.a", 1}, {3000, 1, "top.a", 0}},
			want: "signal top.a settled-waveform lengths differ: 2 vs 3"},
		{name: "initializer differs", mb: zero,
			a:    []change{{1000, 1, "top.c", 6}},
			b:    []change{{1000, 1, "top.c", 6}},
			want: "signal top.c settled waveforms diverge at 0: \"5\" vs \"0\""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ma, mb := cmp.Or(tc.ma, plain), cmp.Or(tc.mb, plain)
			got := DiffSettled("top", ma, trace(tc.a...), mb, trace(tc.b...))
			if (tc.want == "") != (got == "") || !strings.Contains(got, tc.want) {
				t.Errorf("DiffSettled = %q, want %q", got, tc.want)
			}
		})
	}

	t.Run("nothing left to compare", func(t *testing.T) {
		other, err := assembly.Parse("other", "entity @top () -> () {\n  %z = const i8 0\n  %q = sig i8 %z\n}\n")
		if err != nil {
			t.Fatal(err)
		}
		got := DiffSettled("top", plain, trace(), other, trace())
		if !strings.HasPrefix(got, "no top-level signal left to compare") {
			t.Errorf("DiffSettled = %q, want no top-level signal left to compare ...", got)
		}
	})
}

// TestPostZeroWaveform: element 0 is the value once instant zero settles
// — a time-zero change replaces the initializer — and every later element
// is a settled change to a new value.
func TestPostZeroWaveform(t *testing.T) {
	for _, tc := range []struct {
		name    string
		init    string
		settled []string
		want    []string
	}{
		{"initializer only", "3", nil, []string{"3"}},
		{"time-zero change replaces it", "3", []string{"0fs 4", "10fs 5"}, []string{"4", "10fs 5"}},
		{"later changes kept", "3", []string{"10fs 4", "20fs 3"}, []string{"3", "10fs 4", "20fs 3"}},
		{"a change to the same value dropped", "3", []string{"0fs 4", "10fs 4", "20fs 5", "30fs 5"},
			[]string{"4", "20fs 5"}},
		{"unknown initializer", "", []string{"10fs 1"}, []string{"", "10fs 1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := postZeroWaveform(tc.init, tc.settled); !slices.Equal(got, tc.want) {
				t.Errorf("postZeroWaveform(%q, %q) = %q, want %q", tc.init, tc.settled, got, tc.want)
			}
		})
	}
}
