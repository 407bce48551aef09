// Package svsim is the stand-in for the commercial HDL simulator of the
// paper's Table 2. Like a commercial simulator — and unlike LLHD-Sim and
// LLHD-Blaze — it executes the SystemVerilog description directly,
// without any LLHD IR in between. Only the discrete-event kernel
// (internal/engine) is shared, so results can be cross-validated: traces,
// final signal values and assertion outcomes must agree with the
// LLHD-based simulators.
//
// A design is built in two steps, the way the LLHD engines build theirs.
// Compile parses the source, reads every $readmemh image it names and
// elaborates the instance tree, resolving each distinct (module, parameter
// values) pair once into a program (compile.go): every identifier becomes
// a frame slot, a net slot, an array index or a folded constant, every
// operator, edge kind and system task an opcode, and every width, bound,
// replication count and time literal a number. A name is looked up in the
// scope of the block that declares it, so a begin ... end local shadows a
// net only up to its end. Every diagnostic about the source is raised
// here, naming the instance and process. The Design is read-only from
// then on, so any number of simulators, concurrently too, share it.
// Design.NewSimulator only creates signals, array contents and processes
// with their frames. Nothing on a wake path hashes a string, and once a
// process's frames and lists have grown nothing there allocates.
//
// Every block runs as one kind of process, whose control state is data.
// Compile emits each block and each function as flat code: a list of ops
// with jump targets in place of if, case and loops, and a suspend op for
// each # delay and @(...) and for the end of an always block's pass. A
// process keeps the pc to resume at and a stack of the calls in progress
// of functions that may wait; Init and Wake run its code on the kernel's
// goroutine from that pc to the next suspend op, or to its end. Nothing is
// left running between activations, so a simulator needs no shutdown.
package svsim

import (
	"fmt"
	"slices"
	"strconv"

	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/moore"
	"llhd/internal/val"
)

// Design is a SystemVerilog source compiled for SVSim: the instance tree
// under the top and the resolved programs it runs. It is never written
// after Compile.
type Design struct {
	top *instance
}

// Compile parses the source, reads the $readmemh images of every module,
// as the Moore flow does, and elaborates the instance tree under top.
func Compile(src, top string) (*Design, error) {
	file, err := moore.ParseFile(src)
	if err != nil {
		return nil, err
	}
	c := &compiler{mods: make(map[string]*moore.Module, len(file.Modules)), images: map[string]string{}, progs: map[string]*module{}}
	for _, m := range file.Modules {
		if _, dup := c.mods[m.Name]; dup {
			return nil, fmt.Errorf("svsim: duplicate module %q", m.Name)
		}
		c.mods[m.Name] = m
		for _, item := range m.Items {
			ab, ok := item.(*moore.AlwaysBlock)
			if !ok {
				continue
			}
			calls, err := moore.CollectReadmemh(ab.Body)
			if err != nil {
				return nil, fmt.Errorf("svsim: %s: %w", m.Name, err)
			}
			if len(calls) > 0 && ab.Kind != "initial" {
				return nil, fmt.Errorf("svsim: %s: $readmemh is only supported in initial blocks", m.Name)
			}
			for _, call := range calls {
				if _, ok := c.images[call.File]; !ok {
					if c.images[call.File], err = moore.ReadHexFile(call.File); err != nil {
						return nil, fmt.Errorf("svsim: %s: %w", m.Name, err)
					}
				}
			}
		}
	}
	m, ok := c.mods[top]
	if !ok {
		return nil, fmt.Errorf("svsim: top module %q not found", top)
	}
	root := &instance{name: top}
	if root.mod, err = c.module(m, top, nil); err != nil {
		return nil, err
	}
	return &Design{top: root}, nil
}

// Simulator runs a compiled Design on an engine of its own.
type Simulator struct {
	Engine *engine.Engine
}

// NewSimulator instantiates the design on a fresh engine: the signals of
// every instance (in the order the instance tree declares them, which
// fixes the signal IDs), a copy of every array, and the processes with
// their frames.
func (d *Design) NewSimulator() *Simulator {
	s := &Simulator{Engine: engine.New()}
	s.instantiate(d.top, nil)
	return s
}

// instState is one instance's share of a simulator: its nets' signals
// and its arrays, both by slot.
type instState struct {
	mod    *module
	refs   []engine.SigRef
	arrays [][]uint64
}

// instantiate creates the signals, arrays and processes of in and its
// children; bound holds the parent's signal for each port (nil: the top,
// whose ports are signals of their own).
func (s *Simulator) instantiate(in *instance, bound []engine.SigRef) {
	m := in.mod
	st := &instState{mod: m, refs: make([]engine.SigRef, len(m.slotW)), arrays: make([][]uint64, len(m.arrays))}
	for _, n := range m.nets {
		if n.port >= 0 && bound != nil {
			st.refs[n.slot] = bound[n.port]
			continue
		}
		w := m.slotW[n.slot]
		st.refs[n.slot] = engine.SigRef{Sig: s.Engine.NewSignal(in.name+"."+n.name, ir.IntType(w), val.Int(w, n.init))}
	}
	for i, a := range m.arrays {
		st.arrays[i] = slices.Clone(a.init)
	}
	nproc := 0
	for _, it := range m.items {
		if it.inst != nil {
			childBound := make([]engine.SigRef, len(it.inst.ports))
			for i, slot := range it.inst.ports {
				childBound[i] = st.refs[slot]
			}
			s.instantiate(it.inst, childBound)
			continue
		}
		nproc++
		s.Engine.AddProcess(newAstProc(in.name+".p"+strconv.Itoa(nproc), st, it.proc), true)
	}
}
