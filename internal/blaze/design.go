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
// unit plus the functions they call. After Compile seals it, the design
// is immutable and may be shared read-only by any number of concurrent
// Simulators — every piece of mutable runtime state (register files,
// signal tables, reg/del histories, call-frame pools) is created per
// session by NewSimulator.
type CompiledDesign struct {
	module *ir.Module
	top    string

	prog   *bytecode.Program
	bunits map[*ir.Unit]*bytecode.Unit

	sealed bool
}

// Compile lowers every unit reachable from the top entity exactly once,
// freezes the module (ir.Module.Freeze), and returns the sealed,
// immutable design. The compile performs one throwaway elaboration to
// drive unit discovery and to validate that every signal reference
// resolves; the scratch engine is discarded. On error the module is left
// unfrozen — freezing is irreversible, so it must not outlive a failed
// compile.
func Compile(m *ir.Module, top string) (*CompiledDesign, error) {
	cd := newDesign(m, top)
	if _, err := cd.newSimulator(); err != nil {
		return nil, err
	}
	m.Freeze()
	cd.sealed = true
	cd.prog.Seal()
	return cd, nil
}

func newDesign(m *ir.Module, top string) *CompiledDesign {
	return &CompiledDesign{
		module: m,
		top:    top,
		prog:   bytecode.NewProgram(m),
		bunits: map[*ir.Unit]*bytecode.Unit{},
	}
}

// Module returns the (frozen, for sealed designs) module the design was
// compiled from.
func (cd *CompiledDesign) Module() *ir.Module { return cd.module }

// Top returns the name of the top unit the design elaborates.
func (cd *CompiledDesign) Top() string { return cd.top }

// NewSimulator elaborates a fresh, independent session over the shared
// compiled code: its own event engine, signals, register files, and
// call-frame pools. Sessions built from one sealed design may run
// concurrently; the shared code is never written after Compile.
func (cd *CompiledDesign) NewSimulator() (*Simulator, error) {
	if !cd.sealed {
		return nil, fmt.Errorf("blaze: NewSimulator on an unsealed design (use Compile)")
	}
	return cd.newSimulator()
}

// newSimulator elaborates the design on a fresh engine. On an unsealed
// design (during Compile, or blaze.New's single-session path) units are
// lowered on first encounter; on a sealed design every unit must already
// be present.
func (cd *CompiledDesign) newSimulator() (*Simulator, error) {
	e := engine.New()
	rt := bytecode.NewRuntime(cd.prog)
	factory := func(inst *engine.Instance) (engine.Process, error) {
		u, err := cd.unitFor(inst)
		if err != nil {
			return nil, err
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

// unitFor returns the lowered form of the instance's unit, lowering it on
// first encounter while the design is still unsealed.
func (cd *CompiledDesign) unitFor(inst *engine.Instance) (*bytecode.Unit, error) {
	if u, ok := cd.bunits[inst.Unit]; ok {
		return u, nil
	}
	if cd.sealed {
		return nil, fmt.Errorf("blaze: unit @%s is not part of the sealed design", inst.Unit.Name)
	}
	u, err := cd.prog.LowerUnit(inst)
	if err != nil {
		return nil, err
	}
	cd.bunits[inst.Unit] = u
	return u, nil
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
