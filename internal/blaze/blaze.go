// Package blaze implements the optimized LLHD simulator (the paper's
// LLHD-Blaze, §6.1). Where the reference interpreter (internal/sim) walks
// the IR instruction graph, blaze compiles every unit ahead of time and
// executes the compiled form — the same effect the paper obtains with
// LLVM-based JIT compilation, within a pure-Go implementation.
//
// The package is a thin shell over internal/blaze/bytecode, which lowers
// each unit to a flat, fixed-width instruction stream executed by a
// threaded dispatch loop: one switch dispatch per lowered instruction
// (the lowering forwards loads, coalesces stores and fuses splice chains,
// see bytecode/plan.go), registers
// indexed directly by dense value IDs, scalar integer ops running in
// place on the uint64 payload. What lives here is the compile-once
// artifact (CompiledDesign), the per-session Simulator, and the adapter
// that runs one lowered unit instance as an engine.Process.
//
// Lowering is per unit and session-independent: the lowered code
// references per-activation state (registers, signal tables, reg/del
// histories) only through the bytecode.Frame it runs on. A CompiledDesign
// therefore holds one immutable copy of the code for the whole design
// hierarchy, shared read-only by every Simulator built from it — the
// foundation of the concurrent session farm (llhd.Farm). Per-session
// state (the event engine, signals, frames, the bytecode.Runtime's
// call-frame pools) is created by NewSimulator.
//
// Blaze shares the event kernel (internal/engine) with the interpreter, so
// both produce identical traces; only the per-activation execution differs.
package blaze

import (
	"fmt"

	"llhd/internal/blaze/bytecode"
	"llhd/internal/engine"
	"llhd/internal/ir"
)

// Simulator couples one elaborated, per-session incarnation of a compiled
// design with its own event engine. The compiled code is shared with every
// other Simulator built from the same CompiledDesign; everything reachable
// from here that is mutable at run time is session-private.
type Simulator struct {
	Engine *engine.Engine
	Module *ir.Module
	Top    string

	design *CompiledDesign
}

// New compiles the design hierarchy under the top unit and returns the
// simulator of the elaboration that drove the compile: elaborating is how
// the reachable units are discovered (each is lowered when its first
// instance appears) and how every signal reference is checked to resolve,
// so a cold session costs one elaboration, not two. On success the module
// is frozen (ir.Module.Freeze) and Design() is ready to share; on error it
// is left as it was.
func New(m *ir.Module, top string) (*Simulator, error) {
	cd := &CompiledDesign{
		module: m,
		top:    top,
		prog:   bytecode.NewProgram(m),
		bunits: map[*ir.Unit]*bytecode.Unit{},
	}
	s, err := cd.elaborate(true)
	if err != nil {
		return nil, err
	}
	m.Freeze()
	return s, nil
}

// Design returns the compiled design the simulator executes.
func (s *Simulator) Design() *CompiledDesign { return s.design }

// Run initializes and simulates to completion (or the time limit).
func (s *Simulator) Run(limit ir.Time) error {
	s.Engine.Init()
	s.Engine.Run(limit)
	return s.Engine.Err()
}

// bcProc is one unit instance executing shared bytecode over a private
// frame: Init subscribes entity sensitivity, Wake re-runs the cone or
// resumes the process, and a halted one is never woken again (Engine.Halt).
type bcProc struct {
	engine.ProcHandle
	name   string
	u      *bytecode.Unit
	fr     *bytecode.Frame
	rt     *bytecode.Runtime
	entity bool
}

func (p *bcProc) Name() string { return p.name }

func (p *bcProc) Init(e *engine.Engine) {
	if p.entity {
		// Permanent sensitivity on every probed signal.
		e.Subscribe(p.ProcID(), p.fr.Probed)
	}
	p.fr.PC = 0
	p.step(e)
}

func (p *bcProc) Wake(e *engine.Engine) {
	if p.entity {
		p.fr.PC = 0
	}
	p.step(e)
}

func (p *bcProc) step(e *engine.Engine) {
	st, err := p.rt.Exec(e, p.u, p.fr, p.ProcID())
	if err != nil {
		e.SetError(fmt.Errorf("blaze: %s: %w", p.name, err))
		return
	}
	if st == bytecode.StatusHalt {
		e.Halt(p.ProcID())
	}
}
