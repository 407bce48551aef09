package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"llhd/internal/ir"
	"llhd/internal/val"
)

// logProc keeps its sensitivity across wakes (register it with
// oneShot=false) and appends its tag to a shared log on every wake.
type logProc struct {
	ProcHandle
	tag  int
	refs []SigRef
	log  *[]int
}

func (p *logProc) Name() string   { return fmt.Sprint("log", p.tag) }
func (p *logProc) Init(e *Engine) { e.Subscribe(p.ProcID(), p.refs) }
func (p *logProc) Wake(*Engine)   { *p.log = append(*p.log, p.tag) }

// idObserver records the ID of every signal it is handed.
type idObserver struct{ ids []int }

func (o *idObserver) OnChange(_ ir.Time, sig *Signal, _ val.Value) { o.ids = append(o.ids, sig.ID) }

// wideDrive is one scheduled drive of signal id to v.
type wideDrive struct {
	id int
	v  uint64
}

// wideDrives changes the signals in chosen, in a shuffled order: the
// first few twice (to two values that both differ from the current one),
// and mixes in a drive to its current value for up to eight signals that
// are not chosen, which changes nothing.
func wideDrives(rng *rand.Rand, sigs []*Signal, chosen []int) []wideDrive {
	in := make([]bool, len(sigs))
	var ds []wideDrive
	for i, id := range chosen {
		in[id] = true
		cur := sigs[id].Value().Bits
		if i < 5 {
			ds = append(ds, wideDrive{id, (cur + 7) % 256})
		}
		ds = append(ds, wideDrive{id, (cur + 1) % 256})
	}
	for id, noops := 0, 0; id < len(sigs) && noops < 8; id++ {
		if !in[id] {
			ds = append(ds, wideDrive{id, sigs[id].Value().Bits})
			noops++
		}
	}
	rng.Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
	return ds
}

// stepDrives schedules ds one nanosecond ahead and executes that instant.
func stepDrives(e *Engine, sigs []*Signal, ds []wideDrive) {
	for _, d := range ds {
		e.Drive(SigRef{Sig: sigs[d.id]}, val.Int(8, d.v), ir.Nanoseconds(1))
	}
	e.Step()
}

// checkWideInvariants asserts what orderWide relies on and leaves behind:
// signal i has ID i, and changedBits is one all-zero word per 64 signals.
func checkWideInvariants(t *testing.T, e *Engine) {
	t.Helper()
	for i, s := range e.signals {
		if s.ID != i {
			t.Fatalf("e.signals[%d].ID = %d", i, s.ID)
		}
	}
	if want := (len(e.signals) + 63) / 64; len(e.changedBits) != want {
		t.Fatalf("%d changedBits words for %d signals, want %d", len(e.changedBits), len(e.signals), want)
	}
	for w, word := range e.changedBits {
		if word != 0 {
			t.Fatalf("changedBits[%d] = %#x after Step, want 0", w, word)
		}
	}
}

// TestWideInstantOrder pins the wake and observer order of instants that
// change more than 32 signals, the ones Step orders through changedBits:
// one wake per process and one OnChange per signal, in ascending
// signal-ID order, whatever the drive order.
func TestWideInstantOrder(t *testing.T) {
	// 200 signals, so IDs 0/63/64/127/128/199 sit on both sides of word
	// boundaries; instants of 32 (the widest insertion-sorted one), 33 and
	// 200 changes.
	t.Run("fixed", func(t *testing.T) {
		const n = 200
		e := New()
		sigs := make([]*Signal, n)
		for i := range sigs {
			sigs[i] = e.NewSignal("s", ir.IntType(8), val.Int(8, 0))
		}
		var woke []int
		// One process per signal, registered in descending ID order so
		// registration order is never the wake order; then one process,
		// tagged -1, waiting on three signals in three different words.
		for i := n - 1; i >= 0; i-- {
			e.AddProcess(&logProc{tag: i, refs: []SigRef{{Sig: sigs[i]}}, log: &woke}, false)
		}
		multi := map[int]bool{199: true, 63: true, 128: true}
		e.AddProcess(&logProc{tag: -1, log: &woke,
			refs: []SigRef{{Sig: sigs[199]}, {Sig: sigs[63]}, {Sig: sigs[128]}}}, false)
		inMask := func(id int) bool { return id%3 == 0 || id == 64 || id == 127 }
		var maskSigs []*Signal
		for _, s := range sigs {
			if inMask(s.ID) {
				maskSigs = append(maskSigs, s)
			}
		}
		all, masked := &idObserver{}, &idObserver{}
		e.Observe(all)
		e.Observe(masked, maskSigs...)
		e.Init()

		rng := rand.New(rand.NewSource(3))
		for _, k := range []int{32, 33, n} {
			chosen := []int{199, 0, 128, 63, 127, 64}
			taken := map[int]bool{}
			for _, id := range chosen {
				taken[id] = true
			}
			for _, id := range rng.Perm(n) {
				if len(chosen) < k && !taken[id] {
					chosen = append(chosen, id)
					taken[id] = true
				}
			}
			woke, all.ids, masked.ids = woke[:0], all.ids[:0], masked.ids[:0]
			stepDrives(e, sigs, wideDrives(rng, sigs, chosen))
			checkWideInvariants(t, e)

			var wantWake, wantAll, wantMasked []int
			multiWoke := false
			for id := 0; id < n; id++ {
				if !taken[id] {
					continue
				}
				wantWake = append(wantWake, id)
				if multi[id] && !multiWoke {
					wantWake = append(wantWake, -1)
					multiWoke = true
				}
				wantAll = append(wantAll, id)
				if inMask(id) {
					wantMasked = append(wantMasked, id)
				}
			}
			for _, c := range []struct {
				what      string
				got, want []int
			}{
				{"wakes", woke, wantWake},
				{"all-signals observer", all.ids, wantAll},
				{"masked observer", masked.ids, wantMasked},
			} {
				if fmt.Sprint(c.got) != fmt.Sprint(c.want) {
					t.Errorf("%d changes: %s\n got %v\nwant %v", k, c.what, c.got, c.want)
				}
			}
		}
	})

	// Random widths, subsets and drive orders against sort.Slice over IDs.
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for draw := 0; draw < 1000; draw++ {
			n := 1 + rng.Intn(300)
			e := New()
			sigs := make([]*Signal, n)
			for i := range sigs {
				sigs[i] = e.NewSignal("s", ir.IntType(8), val.Int(8, 0))
			}
			var woke []int
			for _, i := range rng.Perm(n) {
				e.AddProcess(&logProc{tag: i, refs: []SigRef{{Sig: sigs[i]}}, log: &woke}, false)
			}
			obs := &idObserver{}
			e.Observe(obs)
			e.Init()

			chosen := rng.Perm(n)[:1+rng.Intn(n)]
			stepDrives(e, sigs, wideDrives(rng, sigs, chosen))
			checkWideInvariants(t, e)

			want := append([]int(nil), chosen...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if fmt.Sprint(woke) != fmt.Sprint(want) || fmt.Sprint(obs.ids) != fmt.Sprint(want) {
				t.Fatalf("draw %d (%d signals, %d changed):\n wakes %v\nOnChange %v\n  want %v",
					draw, n, len(chosen), woke, obs.ids, want)
			}
		}
	})
}
