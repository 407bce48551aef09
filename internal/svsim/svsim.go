// Package svsim is the stand-in for the commercial HDL simulator of the
// paper's Table 2 (see DESIGN.md, substitution 1). Like a commercial
// simulator — and unlike LLHD-Sim and LLHD-Blaze — it executes the
// SystemVerilog description directly: each always/initial block runs as a
// goroutine-backed coroutine interpreting the AST, without any LLHD IR in
// between. Only the discrete-event kernel (internal/engine) is shared, so
// results can be cross-validated: final signal values and assertion
// outcomes must agree with the LLHD-based simulators.
package svsim

import (
	"fmt"
	"strings"

	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/moore"
	"llhd/internal/val"
)

// Simulator executes a SystemVerilog design at the AST level.
type Simulator struct {
	Engine *engine.Engine
	file   *moore.SourceFile
	mods   map[string]*moore.Module
	procs  []*astProc
}

// New parses and elaborates the design under the named top module.
func New(src, top string) (*Simulator, error) {
	file, err := moore.ParseFile(src)
	if err != nil {
		return nil, err
	}
	s := &Simulator{Engine: engine.New(), file: file, mods: map[string]*moore.Module{}}
	for _, m := range file.Modules {
		s.mods[m.Name] = m
	}
	topMod, ok := s.mods[top]
	if !ok {
		return nil, fmt.Errorf("svsim: top module %q not found", top)
	}
	if err := s.elaborate(topMod, top, map[string]uint64{}, map[string]engine.SigRef{}); err != nil {
		return nil, err
	}
	return s, nil
}

// Run simulates until the event queue drains or the time limit passes.
func (s *Simulator) Run(limit ir.Time) error {
	s.Engine.Init()
	s.Engine.Run(limit)
	s.Shutdown()
	return s.Engine.Err()
}

// Shutdown terminates the coroutine processes so their goroutines do not
// leak. It is idempotent and must be called once a simulation driven
// through the engine directly (stepped execution) is finished.
func (s *Simulator) Shutdown() {
	for _, p := range s.procs {
		p.shutdown()
	}
}

// scope is the per-instance elaboration context.
type scope struct {
	consts map[string]uint64
	widths map[string]int
	signed map[string]bool
	sigs   map[string]engine.SigRef
	arrays map[string]*arrayState
	funcs  map[string]*moore.FuncDecl
	mod    *moore.Module
}

// arrayState is a module-level unpacked array (register file, memory).
type arrayState struct {
	elems []uint64 // each masked to width
	width int
}

func (s *Simulator) elaborate(m *moore.Module, name string, params map[string]uint64, bound map[string]engine.SigRef) error {
	sc := &scope{
		consts: map[string]uint64{},
		widths: map[string]int{},
		signed: map[string]bool{},
		sigs:   map[string]engine.SigRef{},
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
		sc.widths[port.Name] = w
		sc.signed[port.Name] = port.Type.Signed
		if ref, ok := bound[port.Name]; ok {
			sc.sigs[port.Name] = ref
		} else {
			sig := s.Engine.NewSignal(name+"."+port.Name, ir.IntType(w), val.Int(w, 0))
			sc.sigs[port.Name] = engine.SigRef{Sig: sig}
		}
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
			if _, isPort := sc.sigs[n]; isPort {
				continue
			}
			sc.widths[n] = w
			sc.signed[n] = decl.Type.Signed
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
			sc.sigs[n] = engine.SigRef{Sig: sig}
		}
	}

	// $readmemh resolves at elaboration, exactly as in the moore/LLHD
	// flow: the image becomes the array's initial contents and the
	// runtime call stays a no-op.
	for _, item := range m.Items {
		ab, ok := item.(*moore.AlwaysBlock)
		if !ok {
			continue
		}
		calls, err := moore.CollectReadmemh(ab.Body)
		if err != nil {
			return fmt.Errorf("svsim: %s: %w", name, err)
		}
		if len(calls) > 0 && ab.Kind != "initial" {
			return fmt.Errorf("svsim: %s: $readmemh is only supported in initial blocks", name)
		}
		for _, call := range calls {
			arr := sc.arrays[call.Array]
			if arr == nil {
				return fmt.Errorf("svsim: %s: $readmemh target %q is not an unpacked array", name, call.Array)
			}
			img, err := moore.LoadHexImage(call.File, arr.width, len(arr.elems))
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
			if err := sc.checkNames(locals, fn); err != nil {
				return fmt.Errorf("svsim: %s: function %s: %w", name, fn.Name, err)
			}
		}
	}

	// Child instances and processes.
	nproc := 0
	for _, item := range m.Items {
		switch it := item.(type) {
		case *moore.InstItem:
			child, ok := s.mods[it.ModName]
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
				ref, ok := sc.sigs[id.Name]
				if !ok {
					return fmt.Errorf("svsim: %s: connection to unknown net %q", name, id.Name)
				}
				childBound[p.Name] = ref
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

var _ = strings.TrimSpace
