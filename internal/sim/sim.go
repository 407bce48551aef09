// Package sim implements the LLHD reference simulator (the paper's
// LLHD-Sim, §6.1): a deliberately simple tree-walking interpreter over the
// IR, running on the shared discrete-event kernel in internal/engine. It
// favours clarity over speed; internal/blaze is the fast counterpart.
//
// There is one executor. An activation (exec.go) is a unit, a frame and a
// position; processes, entities and functions all run through its single
// instruction loop and opcode switch, and differ only in where an
// activation starts and what ends it: a process resumes where its last
// wait left it and runs to the next wait or halt, an entity restarts its
// body on a reset frame and runs it to the end, a function call takes a
// pooled activation, seeds its arguments and runs to ret. Which ops a unit
// kind may hold, and how many operands each takes, is not this package's
// business: engine.Elaborate checks both once, from the ir.OpInfo table
// (ir.CheckShape), before New returns, and the switch indexes operands
// only behind that check. What lives here is the Simulator and the one
// engine.Process adapter over an activation.
//
// Every value access indexes a flat frame by the unit's ir.Numbering (see
// frame.go), the same value-ID scheme the blaze compiler assigns register
// slots with. Activations, wait sets and call-argument buffers are pooled,
// so the per-wake hot path is allocation-free in steady state (pinned by
// TestInterpWakeHotPathAllocFree).
package sim

import (
	"fmt"

	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/val"
)

// Simulator couples an elaborated design with the event engine.
type Simulator struct {
	Engine *engine.Engine
	Module *ir.Module
	Top    string

	// funcs recycles function activations per callee and argPool the
	// call-argument buffers; both keep the call path off the allocator at
	// steady state. depth is the live call chain (engine.MaxCallDepth).
	funcs   map[*ir.Unit]*funcPool
	argPool [][]val.Value
	depth   int
}

// New elaborates the design hierarchy under the named top unit with the
// interpreting process factory. A successful elaboration freezes the
// module (ir.Module.Freeze): the simulator indexes its frames by value ID,
// so a later structural edit must panic rather than corrupt it. On error
// the module is left as it was.
func New(m *ir.Module, top string) (*Simulator, error) {
	e := engine.New()
	s := &Simulator{Engine: e, Module: m, Top: top, funcs: map[*ir.Unit]*funcPool{}}
	// The elaborator instantiates processes and entities only.
	factory := func(inst *engine.Instance) (engine.Process, error) {
		return newProc(s, inst), nil
	}
	if err := engine.Elaborate(e, m, top, factory); err != nil {
		return nil, err
	}
	m.Freeze()
	return s, nil
}

// Run initializes the design and simulates until the event queue drains or
// physical time exceeds limit (zero limit: unbounded). It returns the
// first runtime error, if any.
func (s *Simulator) Run(limit ir.Time) error {
	s.Engine.Init()
	s.Engine.Run(limit)
	return s.Engine.Err()
}

// proc runs one process or entity instance as an engine.Process over its
// activation. A process frame persists across wakes (values computed
// before a wait stay live) and is never reset; an entity restarts its body
// on every wake, on a frame whose constant prefix was seeded from the
// instance's constant table exactly once, here.
type proc struct {
	engine.ProcHandle
	name   string
	act    activation
	entity bool
}

func newProc(s *Simulator, inst *engine.Instance) *proc {
	n := inst.Numbering().Len()
	p := &proc{
		name:   inst.Name,
		act:    activation{sim: s, unit: inst.Unit, frame: newFrame(n)},
		entity: inst.Unit.Kind == ir.UnitEntity,
	}
	// Copy the elaborated signal bindings; runtime extf/exts projections
	// extend the instance-local table.
	p.act.seedSigs(inst, n)
	consts, isConst := inst.ConstTable()
	for id, ok := range isConst {
		if ok {
			p.act.frame.seedConst(id, consts[id])
		}
	}
	p.act.enter()
	return p
}

func (p *proc) Name() string { return p.name }

// Init runs the first activation; an entity first subscribes, permanently,
// to every signal its body probes (§2.4.3).
func (p *proc) Init(e *engine.Engine) {
	if p.entity {
		var refs []engine.SigRef
		seen := map[*engine.Signal]bool{}
		watch := func(v ir.Value) {
			if r, ok := p.act.sigOf(v); ok && !seen[r.Sig] {
				seen[r.Sig] = true
				refs = append(refs, r)
			}
		}
		for _, in := range p.act.block.Insts {
			switch in.Op {
			case ir.OpPrb:
				watch(in.Args[0])
			case ir.OpDel:
				watch(in.Args[1])
			}
		}
		e.Subscribe(p.ProcID(), refs)
	}
	p.Wake(e)
}

func (p *proc) Wake(e *engine.Engine) {
	if p.entity {
		// Invalidate the previous wake's runtime values; the constant
		// prefix stays valid across the stamp bump.
		p.act.frame.reset()
		p.act.enter()
	}
	st, err := p.act.run(e, p.ProcID())
	if err != nil {
		e.SetError(fmt.Errorf("sim: %s: %w", p.name, err))
		return
	}
	if st == finished && !p.entity {
		e.Halt(p.ProcID())
	}
}
