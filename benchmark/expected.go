package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// pin is what no optimisation may change about a design's run: the
// final simulated time and the final values of the testbench's own
// signals (as a digest over name=value lines, with their count). The
// self-checking verdicts need no pin: zero assertion failures and
// tohost == 1 are required of every op on every seed. Kernel counts
// (delta steps, events) are deliberately not pinned; an optimisation
// may change them.
type pin struct {
	// Seed is the seed the values hold for; 0 means every seed (the
	// Table 2 designs are not generated).
	Seed    int64  `json:"seed"`
	Now     string `json:"now"`
	Signals int    `json:"signals"`
	Finals  string `json:"finals"`
}

//go:embed expected.json
var expectedJSON []byte

// loadPins reads the pins, keyed by design name.
func loadPins() (map[string]pin, error) {
	var pins map[string]pin
	if err := json.Unmarshal(expectedJSON, &pins); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return pins, nil
}

// applyPin makes the pinned values the design's reference where a pin
// holds for this seed, so that every op is gated against the committed
// file and not merely against this process's own first run.
func applyPin(d *design, seed int64, pins map[string]pin) {
	p, ok := pins[d.name]
	if !ok || (p.Seed != 0 && p.Seed != seed) {
		return
	}
	d.ref.wantNow = p.Now
	d.ref.want.finals, d.ref.want.nsig = p.Finals, p.Signals
}

// pinOf is the pin a reference run would write.
func pinOf(d *design, seed int64) pin {
	p := pin{Now: d.ref.wantNow, Signals: d.ref.want.nsig, Finals: d.ref.want.finals}
	if d.seeded {
		p.Seed = seed
	}
	return p
}
