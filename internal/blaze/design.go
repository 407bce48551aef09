package blaze

import (
	"fmt"

	"llhd/internal/blaze/bytecode"
	"llhd/internal/engine"
	"llhd/internal/ir"
)

// Tier is a one-constant residue of the retired closure tier. It survives
// only because benchmark/layers.go passes llhd.TierBytecode to the design
// cache; a benchmark-only PR removes it together with the cache's tier
// parameter.
type Tier int

// TierBytecode is blaze's one execution strategy.
const TierBytecode Tier = 0

// CompiledDesign is the compile-once artifact of a design hierarchy: the
// bytecode program holding one lowered unit per reachable process/entity
// unit plus the functions they call. Compile and New return it complete
// and over a frozen module; from then on it is immutable and may be shared
// read-only by any number of concurrent Simulators — every piece of
// mutable runtime state (register files, signal tables, reg/del histories,
// call-frame pools) is created per session by NewSimulator.
type CompiledDesign struct {
	module *ir.Module
	top    string

	prog   *bytecode.Program
	bunits map[*ir.Unit]*bytecode.Unit
}

// Compile lowers every unit reachable from the top entity exactly once,
// freezes the module (ir.Module.Freeze), and returns the immutable design.
// Unit discovery is an elaboration (see New), whose simulator Compile
// discards. On error the module is left unfrozen — freezing is
// irreversible, so it must not outlive a failed compile.
func Compile(m *ir.Module, top string) (*CompiledDesign, error) {
	s, err := New(m, top)
	if err != nil {
		return nil, err
	}
	return s.design, nil
}

// Module returns the frozen module the design was compiled from.
func (cd *CompiledDesign) Module() *ir.Module { return cd.module }

// Top returns the name of the top unit the design elaborates.
func (cd *CompiledDesign) Top() string { return cd.top }

// NewSimulator elaborates a fresh, independent session over the shared
// compiled code: its own event engine, signals, register files, and
// call-frame pools. Sessions built from one design may run concurrently;
// the shared code is never written after Compile.
func (cd *CompiledDesign) NewSimulator() (*Simulator, error) {
	return cd.elaborate(false)
}

// elaborate builds the design on a fresh engine. While compiling (New),
// a unit is lowered when its first instance appears; afterwards every
// unit an elaboration can reach is present, and the design is only read.
func (cd *CompiledDesign) elaborate(compiling bool) (*Simulator, error) {
	e := engine.New()
	rt := bytecode.NewRuntime(cd.prog)
	factory := func(inst *engine.Instance) (engine.Process, error) {
		u, ok := cd.bunits[inst.Unit]
		if !ok {
			if !compiling {
				return nil, fmt.Errorf("blaze: unit @%s is not part of the compiled design", inst.Unit.Name)
			}
			var err error
			if u, err = cd.prog.LowerUnit(inst); err != nil {
				return nil, err
			}
			cd.bunits[inst.Unit] = u
		}
		fr, err := u.NewFrame(inst)
		if err != nil {
			return nil, fmt.Errorf("blaze: %s: %w", inst.Name, err)
		}
		return &bcProc{name: inst.Name, u: u, fr: fr, rt: rt, entity: u.Entity}, nil
	}
	if err := engine.Elaborate(e, cd.module, cd.top, factory); err != nil {
		return nil, err
	}
	return &Simulator{Engine: e, Module: cd.module, Top: cd.top, design: cd}, nil
}

// DisasmUnit renders the bytecode of one lowered unit; the golden tests
// pin encodings through it.
func (cd *CompiledDesign) DisasmUnit(name string) (string, error) {
	for u, bu := range cd.bunits {
		if u.Name == name {
			return bytecode.Disasm(bu), nil
		}
	}
	for _, fu := range cd.prog.FuncList {
		if fu.Name == name {
			return bytecode.Disasm(fu), nil
		}
	}
	return "", fmt.Errorf("blaze: no lowered unit @%s in the design", name)
}
