package blaze

import "llhd/internal/blaze/bytecode"

// LoweredUnits returns the design's lowered process and entity units by
// name, for the tests that measure the lowering.
func (cd *CompiledDesign) LoweredUnits() map[string]*bytecode.Unit {
	out := make(map[string]*bytecode.Unit, len(cd.bunits))
	for u, bu := range cd.bunits {
		out[u.Name] = bu
	}
	return out
}
