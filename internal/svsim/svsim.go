// Package svsim is the stand-in for the commercial HDL simulator of the
// paper's Table 2. Like a commercial simulator — and unlike LLHD-Sim and
// LLHD-Blaze — it executes the SystemVerilog description directly,
// interpreting the AST of each always/initial block without any LLHD IR in
// between. Only the discrete-event kernel (internal/engine) is shared, so
// results can be cross-validated: traces, final signal values and
// assertion outcomes must agree with the LLHD-based simulators.
//
// A design is built in two steps, the way the LLHD engines build theirs.
// Compile parses the source, builds the module table, checks the top and
// reads every $readmemh image the source names; the Design it returns is
// read-only from then on, so any number of simulators, concurrently too,
// share it. Design.NewSimulator elaborates it on a fresh engine: signals,
// net bindings, array contents and processes are each simulator's own.
//
// A block runs as one of two kinds of process, picked once when it is
// built (newAstProc). A block that cannot suspend mid-body — an always
// block with no # delay and no @(...) in its body or in any function of
// its module — is a plain call: each Wake runs one pass on the kernel's
// goroutine. Every other block (initial blocks, bodies that wait in line)
// is a coroutine on iter.Pull that yields to the kernel at each wait and
// is resumed by the next Wake, the classic threaded-simulator
// architecture.
//
// Names resolve once, at elaboration: every net of a module instance is a
// binding (kernel signal, width, signedness, slot), and a process keeps
// its pending writes and read set in slices indexed by slot.
package svsim

import (
	"fmt"
	"sort"

	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/moore"
	"llhd/internal/val"
)

// Design is a SystemVerilog source compiled for SVSim: its modules by
// name, the top, and the text of every $readmemh image the source names,
// by path. It is never written after Compile.
type Design struct {
	top    string
	mods   map[string]*moore.Module
	images map[string]string
}

// Compile parses the source, checks that it names the top module and
// reads the $readmemh images of every module, as the Moore flow does.
func Compile(src, top string) (*Design, error) {
	file, err := moore.ParseFile(src)
	if err != nil {
		return nil, err
	}
	d := &Design{top: top, mods: make(map[string]*moore.Module, len(file.Modules)), images: map[string]string{}}
	for _, m := range file.Modules {
		if _, dup := d.mods[m.Name]; dup {
			return nil, fmt.Errorf("svsim: duplicate module %q", m.Name)
		}
		d.mods[m.Name] = m
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
				if _, ok := d.images[call.File]; !ok {
					if d.images[call.File], err = moore.ReadHexFile(call.File); err != nil {
						return nil, fmt.Errorf("svsim: %s: %w", m.Name, err)
					}
				}
			}
		}
	}
	if _, ok := d.mods[top]; !ok {
		return nil, fmt.Errorf("svsim: top module %q not found", top)
	}
	return d, nil
}

// Simulator executes a SystemVerilog design at the AST level.
type Simulator struct {
	Engine *engine.Engine
	d      *Design
	procs  []*astProc
}

// NewSimulator elaborates the design under its top module on a fresh
// engine.
func (d *Design) NewSimulator() (*Simulator, error) {
	s := &Simulator{Engine: engine.New(), d: d}
	if err := s.elaborate(d.mods[d.top], d.top, map[string]uint64{}, map[string]engine.SigRef{}); err != nil {
		return nil, err
	}
	return s, nil
}

// Shutdown ends the coroutine processes still parked at a wait so their
// goroutines do not leak. It is idempotent and must be called once a
// simulation driven through s.Engine is finished.
func (s *Simulator) Shutdown() {
	for _, p := range s.procs {
		p.shutdown()
	}
}

// scope is the per-instance elaboration context.
type scope struct {
	consts map[string]uint64
	nets   map[string]*binding
	slots  []*binding // nets by slot
	arrays map[string]*arrayState
	funcs  map[string]*moore.FuncDecl
	// funcsSuspend: some function of the module holds a # delay or an
	// @(...), so no block of the instance may run as a plain call.
	funcsSuspend bool
	mod          *moore.Module
}

// binding is a net of the instance as its processes see it: the kernel
// signal, the declared width and signedness, and the slot, the net's rank
// in sorted-name order, which indexes a process's pending writes and read
// set (and so makes slot order the name order flush drives in).
type binding struct {
	ref    engine.SigRef
	width  int
	signed bool
	slot   int
}

// arrayState is a module-level unpacked array (register file, memory).
type arrayState struct {
	elems []uint64 // each masked to width
	width int
}

func (s *Simulator) elaborate(m *moore.Module, name string, params map[string]uint64, bound map[string]engine.SigRef) error {
	sc := &scope{
		consts: map[string]uint64{},
		nets:   map[string]*binding{},
		arrays: map[string]*arrayState{},
		funcs:  map[string]*moore.FuncDecl{},
		mod:    m,
	}
	for _, p := range m.Params {
		if v, ok := params[p.Name]; ok {
			sc.consts[p.Name] = v
		} else {
			v, err := sc.constEval(p.Default)
			if err != nil {
				return err
			}
			sc.consts[p.Name] = v
		}
	}
	for _, item := range m.Items {
		if lp, ok := item.(*moore.LocalParam); ok {
			v, err := sc.constEval(lp.Value)
			if err != nil {
				return err
			}
			sc.consts[lp.Name] = v
		}
		if fn, ok := item.(*moore.FuncDecl); ok {
			sc.funcs[fn.Name] = fn
		}
	}

	// Ports: bind to parent nets or create fresh signals for the top.
	for _, port := range m.Ports {
		w, err := sc.typeWidth(port.Type)
		if err != nil {
			return err
		}
		ref, ok := bound[port.Name]
		if !ok {
			ref = engine.SigRef{Sig: s.Engine.NewSignal(name+"."+port.Name, ir.IntType(w), val.Int(w, 0))}
		}
		sc.nets[port.Name] = &binding{ref: ref, width: w, signed: port.Type.Signed}
	}
	// Internal nets and arrays.
	for _, item := range m.Items {
		decl, ok := item.(*moore.NetDecl)
		if !ok {
			continue
		}
		w, err := sc.typeWidth(decl.Type)
		if err != nil {
			return err
		}
		for i, n := range decl.Names {
			if _, isPort := sc.nets[n]; isPort {
				continue
			}
			if decl.Type.UnpackedLo != nil {
				lo, err := sc.constEval(decl.Type.UnpackedLo)
				if err != nil {
					return err
				}
				hi, err := sc.constEval(decl.Type.UnpackedHi)
				if err != nil {
					return err
				}
				if hi < lo {
					lo, hi = hi, lo
				}
				length := int(hi-lo) + 1
				elems := make([]uint64, length)
				if lit, ok := decl.Inits[i].(*moore.ArrayLit); ok {
					for j, e := range lit.Elems {
						if j < length {
							v, err := sc.constEval(e)
							if err != nil {
								return err
							}
							elems[j] = mask(v, w)
						}
					}
				}
				sc.arrays[n] = &arrayState{elems: elems, width: w}
				continue
			}
			init := uint64(0)
			if decl.Inits[i] != nil {
				v, err := sc.constEval(decl.Inits[i])
				if err != nil {
					return err
				}
				init = v
			}
			sig := s.Engine.NewSignal(name+"."+n, ir.IntType(w), val.Int(w, init))
			sc.nets[n] = &binding{ref: engine.SigRef{Sig: sig}, width: w, signed: decl.Type.Signed}
		}
	}
	names := make([]string, 0, len(sc.nets))
	for n := range sc.nets {
		names = append(names, n)
	}
	sort.Strings(names)
	sc.slots = make([]*binding, len(names))
	for i, n := range names {
		sc.nets[n].slot = i
		sc.slots[i] = sc.nets[n]
	}

	// $readmemh resolves at elaboration, exactly as in the moore/LLHD
	// flow: the image Compile read becomes the array's initial contents
	// and the runtime call stays a no-op.
	for _, item := range m.Items {
		ab, ok := item.(*moore.AlwaysBlock)
		if !ok {
			continue
		}
		calls, _ := moore.CollectReadmemh(ab.Body) // Compile checked them
		for _, call := range calls {
			arr := sc.arrays[call.Array]
			if arr == nil {
				return fmt.Errorf("svsim: %s: $readmemh target %q is not an unpacked array", name, call.Array)
			}
			img, err := moore.ParseHexFile(call.File, s.d.images[call.File], arr.width, len(arr.elems))
			if err != nil {
				return fmt.Errorf("svsim: %s: %w", name, err)
			}
			for i, v := range img {
				arr.elems[i] = mask(v, arr.width)
			}
		}
	}

	// Functions see the instance's nets, so their names resolve only now.
	for _, item := range m.Items {
		if fn, ok := item.(*moore.FuncDecl); ok {
			locals := map[string]bool{fn.Name: true}
			for _, arg := range fn.Args {
				locals[arg.Name] = true
			}
			if err := sc.checkNames(locals, nil, fn); err != nil {
				return fmt.Errorf("svsim: %s: function %s: %w", name, fn.Name, err)
			}
			sc.funcsSuspend = sc.funcsSuspend || suspends(fn)
		}
	}

	// Child instances and processes.
	nproc := 0
	for _, item := range m.Items {
		switch it := item.(type) {
		case *moore.InstItem:
			child, ok := s.d.mods[it.ModName]
			if !ok {
				return fmt.Errorf("svsim: unknown module %q", it.ModName)
			}
			overrides := map[string]uint64{}
			for i, pc := range it.Params {
				pname := pc.Name
				if pname == "" && i < len(child.Params) {
					pname = child.Params[i].Name
				}
				v, err := sc.constEval(pc.Expr)
				if err != nil {
					return err
				}
				overrides[pname] = v
			}
			childBound := map[string]engine.SigRef{}
			conns := map[string]moore.Expr{}
			if it.Star {
				for _, p := range child.Ports {
					conns[p.Name] = &moore.Ident{Name: p.Name}
				}
			} else {
				positional := true
				for _, cn := range it.Conns {
					if cn.Name != "" {
						positional = false
					}
				}
				for i, cn := range it.Conns {
					if positional && i < len(child.Ports) {
						conns[child.Ports[i].Name] = cn.Expr
					} else {
						conns[cn.Name] = cn.Expr
					}
				}
			}
			for _, p := range child.Ports {
				e := conns[p.Name]
				id, ok := e.(*moore.Ident)
				if !ok {
					return fmt.Errorf("svsim: %s: unsupported connection for %s", name, p.Name)
				}
				b, ok := sc.nets[id.Name]
				if !ok {
					return fmt.Errorf("svsim: %s: connection to unknown net %q", name, id.Name)
				}
				childBound[p.Name] = b.ref
			}
			if err := s.elaborate(child, name+"."+it.InstName, overrides, childBound); err != nil {
				return err
			}

		case *moore.AlwaysBlock:
			nproc++
			if err := s.addProcess(fmt.Sprintf("%s.p%d", name, nproc), sc, it); err != nil {
				return err
			}

		case *moore.AssignItem:
			nproc++
			blk := &moore.AlwaysBlock{Kind: "always_comb",
				Body: &moore.AssignStmt{Target: it.Target, Value: it.Value, Blocking: true}}
			if err := s.addProcess(fmt.Sprintf("%s.p%d", name, nproc), sc, blk); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *Simulator) addProcess(name string, sc *scope, blk *moore.AlwaysBlock) error {
	p, err := newAstProc(name, sc, blk)
	if err != nil {
		return err
	}
	s.procs = append(s.procs, p)
	s.Engine.AddProcess(p, true)
	return nil
}

// ------------------------------------------------------------ const eval

func (sc *scope) constEval(e moore.Expr) (uint64, error) {
	switch x := e.(type) {
	case nil:
		return 0, fmt.Errorf("svsim: nil constant")
	case *moore.Number:
		return x.Value, nil
	case *moore.Ident:
		if v, ok := sc.consts[x.Name]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("svsim: %q is not a constant", x.Name)
	case *moore.Unary:
		v, err := sc.constEval(x.X)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "-":
			return -v, nil
		case "~":
			return ^v, nil
		case "!":
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		}
	case *moore.Binary:
		a, err := sc.constEval(x.X)
		if err != nil {
			return 0, err
		}
		b, err := sc.constEval(x.Y)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "+":
			return a + b, nil
		case "-":
			return a - b, nil
		case "*":
			return a * b, nil
		case "/":
			if b == 0 {
				return 0, fmt.Errorf("svsim: constant division by zero")
			}
			return a / b, nil
		case "<<":
			return a << b, nil
		case ">>":
			return a >> b, nil
		}
	}
	return 0, fmt.Errorf("svsim: unsupported constant expression %T", e)
}

func (sc *scope) typeWidth(dt *moore.DataType) (int, error) {
	if dt == nil {
		return 1, nil
	}
	if (dt.Keyword == "int" || dt.Keyword == "integer") && dt.Msb == nil {
		return 32, nil
	}
	if dt.Keyword == "byte" && dt.Msb == nil {
		return 8, nil
	}
	if dt.Msb == nil {
		return 1, nil
	}
	msb, err := sc.constEval(dt.Msb)
	if err != nil {
		return 0, err
	}
	lsb, err := sc.constEval(dt.Lsb)
	if err != nil {
		return 0, err
	}
	if int64(msb) < int64(lsb) {
		msb, lsb = lsb, msb
	}
	return int(msb-lsb) + 1, nil
}
