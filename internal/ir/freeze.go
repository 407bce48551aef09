package ir

// Freeze seals the module for shared, read-only use: it eagerly computes
// and caches every unit's value numbering while mutation is still legal,
// then marks the module and all its units frozen. From that point on any
// structural mutation — adding or removing units, blocks, arguments, or
// instructions — panics, so a frozen module can be handed to any number of
// concurrent consumers (simulation sessions, compilers, printers) without
// synchronization: every lazily-cached artifact they read (numberings,
// value IDs) is already materialized and immutable.
//
// Freeze is idempotent and returns the module for chaining:
//
//	farm-ready := moore-compiled module → Lower → Freeze
//
// Passes (llhd.Lower and friends) must run before Freeze; there is no
// thaw. Until then numberings are computed lazily and revalidated on every
// access, which is what lets the passes edit a unit between two reads. The
// simulation engines freeze the module they elaborate (sim.New, blaze.New):
// their state is indexed by value ID, so nothing may renumber under them.
func (m *Module) Freeze() *Module {
	if m.frozen {
		return m
	}
	for _, u := range m.Units {
		u.Numbering() // materialize the cache while recompute is still legal
		u.frozen = true
	}
	m.frozen = true
	return m
}

// Frozen reports whether the module has been sealed by Freeze.
func (m *Module) Frozen() bool { return m.frozen }

// Frozen reports whether the unit has been sealed by its module's Freeze.
func (u *Unit) Frozen() bool { return u.frozen }
