package moore

import (
	"fmt"
	"sort"
	"strings"

	"llhd/internal/ir"
)

// Compile parses src and elaborates every module into Behavioural LLHD.
// Modules instantiated with parameter overrides are specialized per
// distinct binding.
func Compile(name, src string) (*ir.Module, error) {
	file, err := ParseFile(src)
	if err != nil {
		return nil, err
	}
	return CompileFile(name, file)
}

// CompileFile elaborates a parsed source file.
func CompileFile(name string, file *SourceFile) (*ir.Module, error) {
	c := &compiler{
		out:  ir.NewModule(name),
		mods: map[string]*Module{},
		done: map[string]bool{},
	}
	for _, m := range file.Modules {
		if _, dup := c.mods[m.Name]; dup {
			return nil, fmt.Errorf("moore: duplicate module %q", m.Name)
		}
		c.mods[m.Name] = m
	}
	// Elaborate every module with its default parameters; instantiations
	// with overrides specialize on demand.
	for _, m := range file.Modules {
		if _, err := c.elaborate(m, nil); err != nil {
			return nil, err
		}
	}
	return c.out, nil
}

type compiler struct {
	out  *ir.Module
	mods map[string]*Module
	done map[string]bool
}

// unitName builds the specialized unit name for a parameter binding.
func unitName(m *Module, params map[string]uint64) string {
	if len(m.Params) == 0 {
		return m.Name
	}
	name := m.Name
	for _, p := range m.Params {
		name += fmt.Sprintf("$%s%d", p.Name, params[p.Name])
	}
	return name
}

// netInfo describes one module-level net, parameter, or unpacked array.
type netInfo struct {
	name   string
	width  int
	signed bool
	isTime bool

	// Packed nets: bound to a signal-typed value in the entity and to an
	// argument in each process that touches it.
	isNet bool

	// Unpacked arrays: owned by a single process as a var.
	isArray   bool
	arrayLen  int
	arrayInit []uint64 // element values; nil for zeros

	initVal uint64 // net initializer (constant)
	hasInit bool
}

// scope is the constant environment of one elaboration.
type scope struct {
	consts map[string]uint64
	nets   map[string]*netInfo
	funcs  map[string]string // function name -> IR unit name
	mod    *Module
}

// elaborate generates the IR units for module m under the given parameter
// binding and returns the entity unit name.
func (c *compiler) elaborate(m *Module, overrides map[string]uint64) (string, error) {
	sc := &scope{consts: map[string]uint64{}, nets: map[string]*netInfo{}, funcs: map[string]string{}, mod: m}

	params := map[string]uint64{}
	for _, p := range m.Params {
		if v, ok := overrides[p.Name]; ok {
			params[p.Name] = v
		} else {
			v, err := c.constEval(p.Default, sc)
			if err != nil {
				return "", fmt.Errorf("moore: module %s parameter %s: %w", m.Name, p.Name, err)
			}
			params[p.Name] = v
		}
		sc.consts[p.Name] = params[p.Name]
	}
	uname := unitName(m, params)
	if c.done[uname] {
		return uname, nil
	}
	c.done[uname] = true

	// Local parameters.
	for _, item := range m.Items {
		if lp, ok := item.(*LocalParam); ok {
			v, err := c.constEval(lp.Value, sc)
			if err != nil {
				return "", fmt.Errorf("moore: %s.%s: %w", m.Name, lp.Name, err)
			}
			sc.consts[lp.Name] = v
		}
	}

	// Net table: ports first, then declarations.
	for _, port := range m.Ports {
		w, err := c.typeWidth(port.Type, sc)
		if err != nil {
			return "", err
		}
		sc.nets[port.Name] = &netInfo{name: port.Name, width: w, signed: port.Type.Signed, isNet: true}
	}
	for _, item := range m.Items {
		decl, ok := item.(*NetDecl)
		if !ok {
			continue
		}
		w, err := c.typeWidth(decl.Type, sc)
		if err != nil {
			return "", err
		}
		for i, name := range decl.Names {
			if _, dup := sc.nets[name]; dup {
				continue // port redeclaration
			}
			ni := &netInfo{name: name, width: w, signed: decl.Type.Signed, isNet: true}
			if decl.Type.UnpackedLo != nil {
				lo, err := c.constEval(decl.Type.UnpackedLo, sc)
				if err != nil {
					return "", err
				}
				hi, err := c.constEval(decl.Type.UnpackedHi, sc)
				if err != nil {
					return "", err
				}
				if hi < lo {
					lo, hi = hi, lo
				}
				ni.isArray = true
				ni.isNet = false
				ni.arrayLen = int(hi-lo) + 1
			}
			if decl.Inits[i] != nil {
				if lit, ok := decl.Inits[i].(*ArrayLit); ok && ni.isArray {
					for _, e := range lit.Elems {
						v, err := c.constEval(e, sc)
						if err != nil {
							return "", err
						}
						ni.arrayInit = append(ni.arrayInit, v)
					}
				} else {
					v, err := c.constEval(decl.Inits[i], sc)
					if err != nil {
						return "", err
					}
					ni.initVal = ir.MaskWidth(v, w)
					ni.hasInit = true
				}
			}
			sc.nets[name] = ni
		}
	}

	// $readmemh loads resolve at elaboration into the array's initial
	// image, like an '{...} initializer; the runtime call is a no-op.
	for _, item := range m.Items {
		ab, ok := item.(*AlwaysBlock)
		if !ok {
			continue
		}
		calls, err := CollectReadmemh(ab.Body)
		if err != nil {
			return "", fmt.Errorf("moore: %s: %w", m.Name, err)
		}
		if len(calls) > 0 && ab.Kind != "initial" {
			return "", fmt.Errorf("moore: %s: $readmemh is only supported in initial blocks", m.Name)
		}
		for _, call := range calls {
			ni := sc.nets[call.Array]
			if ni == nil || !ni.isArray {
				return "", fmt.Errorf("moore: %s: $readmemh target %q is not an unpacked array", m.Name, call.Array)
			}
			img, err := LoadHexImage(call.File, ni.width, ni.arrayLen)
			if err != nil {
				return "", fmt.Errorf("moore: %s: %w", m.Name, err)
			}
			ni.arrayInit = img
		}
	}

	// Functions.
	for _, item := range m.Items {
		if fn, ok := item.(*FuncDecl); ok {
			fname := uname + "_" + fn.Name
			sc.funcs[fn.Name] = fname
			if err := c.genFunction(fn, fname, sc); err != nil {
				return "", err
			}
		}
	}

	// Entity shell.
	entity := ir.NewUnit(ir.UnitEntity, uname)
	binding := map[string]ir.Value{} // net name -> signal value in the entity
	for _, port := range m.Ports {
		ni := sc.nets[port.Name]
		ty := ir.SignalType(ir.IntType(ni.width))
		var a *ir.Arg
		if port.Dir == "input" {
			a = entity.AddInput(port.Name, ty)
		} else {
			a = entity.AddOutput(port.Name, ty)
		}
		binding[port.Name] = a
	}
	eb := ir.NewBuilder(entity)
	for _, item := range m.Items {
		decl, ok := item.(*NetDecl)
		if !ok {
			continue
		}
		for _, name := range decl.Names {
			ni := sc.nets[name]
			if ni == nil || !ni.isNet || binding[name] != nil {
				continue
			}
			init := eb.ConstInt(ir.IntType(ni.width), ni.initVal)
			s := eb.Sig(init)
			s.SetName(name)
			binding[name] = s
		}
	}
	if err := c.out.Add(entity); err != nil {
		return "", err
	}

	// Determine array ownership: exactly one process may touch an array.
	// $readmemh arguments claim none: the load is applied at elaboration.
	arraysUsed := func(item Item) (names []string) {
		Inspect(item, func(n Node) bool {
			switch x := n.(type) {
			case *Ident:
				if ni := sc.nets[x.Name]; ni != nil && ni.isArray {
					names = append(names, x.Name)
				}
			case *SysCallStmt:
				return x.Name != "$readmemh"
			}
			return true
		})
		return names
	}
	arrayOwner := map[string]int{}
	procIdx := 0
	for _, item := range m.Items {
		switch it := item.(type) {
		case *AlwaysBlock:
			for _, n := range arraysUsed(it) {
				if owner, claimed := arrayOwner[n]; claimed && owner != procIdx {
					return "", fmt.Errorf("moore: %s: array %q used by more than one process", m.Name, n)
				}
				arrayOwner[n] = procIdx
			}
			procIdx++
		case *AssignItem:
			if names := arraysUsed(it); len(names) > 0 {
				return "", fmt.Errorf("moore: %s: array %q used in a continuous assign", m.Name, names[0])
			}
			procIdx++
		}
	}

	// Generate processes and instantiations.
	procIdx = 0
	for _, item := range m.Items {
		switch it := item.(type) {
		case *AlwaysBlock, *AssignItem:
			pname := fmt.Sprintf("%s_p%d", uname, procIdx)
			owned := map[string]bool{}
			for n, owner := range arrayOwner {
				if owner == procIdx {
					owned[n] = true
				}
			}
			reads, writes, err := c.genProcess(it, pname, sc, owned)
			if err != nil {
				return "", fmt.Errorf("moore: %s: %w", m.Name, err)
			}
			// Instantiate the process in the entity.
			var ins, outs []ir.Value
			for _, n := range reads {
				ins = append(ins, binding[n])
			}
			for _, n := range writes {
				outs = append(outs, binding[n])
			}
			eb.Instantiate(pname, ins, outs)
			procIdx++

		case *InstItem:
			if err := c.genInstantiation(it, m, sc, entity, eb, binding); err != nil {
				return "", err
			}
		}
	}
	return uname, nil
}

// typeWidth computes the bit width of a declaration type.
func (c *compiler) typeWidth(dt *DataType, sc *scope) (int, error) {
	if dt == nil {
		return 1, nil
	}
	if dt.Keyword == "int" || dt.Keyword == "integer" {
		if dt.Msb == nil {
			return 32, nil
		}
	}
	if dt.Keyword == "byte" && dt.Msb == nil {
		return 8, nil
	}
	if dt.Msb == nil {
		return 1, nil
	}
	msb, err := c.constEval(dt.Msb, sc)
	if err != nil {
		return 0, err
	}
	lsb, err := c.constEval(dt.Lsb, sc)
	if err != nil {
		return 0, err
	}
	if int64(msb) < int64(lsb) {
		msb, lsb = lsb, msb
	}
	w := int(msb-lsb) + 1
	if w <= 0 || w > 64 {
		return 0, fmt.Errorf("unsupported vector width %d", w)
	}
	return w, nil
}

// constEval evaluates an elaboration-time constant expression.
func (c *compiler) constEval(e Expr, sc *scope) (uint64, error) {
	switch x := e.(type) {
	case *Number:
		return x.Value, nil
	case *Ident:
		if v, ok := sc.consts[x.Name]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("identifier %q is not an elaboration-time constant", x.Name)
	case *Unary:
		v, err := c.constEval(x.X, sc)
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
	case *Binary:
		a, err := c.constEval(x.X, sc)
		if err != nil {
			return 0, err
		}
		b, err := c.constEval(x.Y, sc)
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
				return 0, fmt.Errorf("division by zero in constant")
			}
			return a / b, nil
		case "%":
			if b == 0 {
				return 0, fmt.Errorf("modulo by zero in constant")
			}
			return a % b, nil
		case "<<":
			return a << b, nil
		case ">>":
			return a >> b, nil
		case "&":
			return a & b, nil
		case "|":
			return a | b, nil
		case "^":
			return a ^ b, nil
		case "==":
			return b2u(a == b), nil
		case "!=":
			return b2u(a != b), nil
		case "<":
			return b2u(a < b), nil
		case "<=":
			return b2u(a <= b), nil
		case ">":
			return b2u(a > b), nil
		case ">=":
			return b2u(a >= b), nil
		}
	case *Ternary:
		cv, err := c.constEval(x.Cond, sc)
		if err != nil {
			return 0, err
		}
		if cv != 0 {
			return c.constEval(x.Then, sc)
		}
		return c.constEval(x.Else, sc)
	case *CallExpr:
		if x.Name == "$clog2" && len(x.Args) == 1 {
			v, err := c.constEval(x.Args[0], sc)
			if err != nil {
				return 0, err
			}
			n := uint64(0)
			for (uint64(1) << n) < v {
				n++
			}
			return n, nil
		}
	}
	return 0, fmt.Errorf("unsupported constant expression %T", e)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// genInstantiation wires a child module instance into the parent entity.
func (c *compiler) genInstantiation(it *InstItem, m *Module, sc *scope,
	entity *ir.Unit, eb *ir.Builder, binding map[string]ir.Value) error {

	child, ok := c.mods[it.ModName]
	if !ok {
		return fmt.Errorf("moore: %s: unknown module %q", m.Name, it.ModName)
	}
	overrides := map[string]uint64{}
	for i, pc := range it.Params {
		name := pc.Name
		if name == "" {
			if i >= len(child.Params) {
				return fmt.Errorf("moore: %s: too many parameter overrides for %s", m.Name, it.ModName)
			}
			name = child.Params[i].Name
		}
		v, err := c.constEval(pc.Expr, sc)
		if err != nil {
			return err
		}
		overrides[name] = v
	}
	childName, err := c.elaborate(child, overrides)
	if err != nil {
		return err
	}

	// Resolve connections to parent nets.
	connFor := map[string]Expr{}
	if it.Star {
		for _, port := range child.Ports {
			connFor[port.Name] = &Ident{Name: port.Name}
		}
	} else {
		positional := true
		for _, conn := range it.Conns {
			if conn.Name != "" {
				positional = false
			}
		}
		if positional {
			for i, conn := range it.Conns {
				if i < len(child.Ports) {
					connFor[child.Ports[i].Name] = conn.Expr
				}
			}
		} else {
			for _, conn := range it.Conns {
				connFor[conn.Name] = conn.Expr
			}
		}
	}

	var ins, outs []ir.Value
	for _, port := range child.Ports {
		e := connFor[port.Name]
		var sigVal ir.Value
		switch conn := e.(type) {
		case nil:
			// Unconnected: dangling net.
			w, err := c.typeWidthInChild(port, child, overrides)
			if err != nil {
				return err
			}
			z := eb.ConstInt(ir.IntType(w), 0)
			s := eb.Sig(z)
			s.SetName(it.InstName + "_" + port.Name + "_nc")
			sigVal = s
		case *Ident:
			v, ok := binding[conn.Name]
			if !ok {
				return fmt.Errorf("moore: %s: connection to unknown net %q", m.Name, conn.Name)
			}
			sigVal = v
		case *Number:
			w, err := c.typeWidthInChild(port, child, overrides)
			if err != nil {
				return err
			}
			k := eb.ConstInt(ir.IntType(w), conn.Value)
			s := eb.Sig(k)
			s.SetName(it.InstName + "_" + port.Name + "_tie")
			sigVal = s
		default:
			return fmt.Errorf("moore: %s: unsupported connection expression for port %q (use a plain net)", m.Name, port.Name)
		}
		if port.Dir == "input" {
			ins = append(ins, sigVal)
		} else {
			outs = append(outs, sigVal)
		}
	}
	inst := eb.Instantiate(childName, ins, outs)
	inst.SetName(it.InstName)
	return nil
}

// typeWidthInChild evaluates a child port's width under its parameter
// binding.
func (c *compiler) typeWidthInChild(port *Port, child *Module, overrides map[string]uint64) (int, error) {
	childSc := &scope{consts: map[string]uint64{}, mod: child}
	for _, p := range child.Params {
		if v, ok := overrides[p.Name]; ok {
			childSc.consts[p.Name] = v
		} else if p.Default != nil {
			v, err := c.constEval(p.Default, childSc)
			if err != nil {
				return 0, err
			}
			childSc.consts[p.Name] = v
		}
	}
	// Localparams that feed port widths.
	for _, item := range child.Items {
		if lp, ok := item.(*LocalParam); ok {
			if v, err := c.constEval(lp.Value, childSc); err == nil {
				childSc.consts[lp.Name] = v
			}
		}
	}
	return c.typeWidth(port.Type, childSc)
}

// readsWrites analyses which module nets a process reads and writes: it
// writes the nets its assignment targets name and reads every other net
// it mentions, the events it waits on included. $readmemh arguments are
// resolved at elaboration and read nothing.
func readsWrites(item Item, sc *scope) (reads, writes []string) {
	readSet := map[string]bool{}
	writeSet := map[string]bool{}
	mark := func(set map[string]bool, names ...string) {
		for _, n := range names {
			if ni := sc.nets[n]; ni != nil && ni.isNet {
				set[n] = true
			}
		}
	}
	Inspect(item, func(n Node) bool {
		switch x := n.(type) {
		case *Ident:
			mark(readSet, x.Name)
		case *AssignItem:
			mark(writeSet, LvalueNets(x.Target)...)
		case *AssignStmt:
			mark(writeSet, LvalueNets(x.Target)...)
		case *IncDec:
			mark(writeSet, LvalueNets(x.X)...)
		case *SysCallStmt:
			return x.Name != "$readmemh"
		}
		return true
	})
	for n := range readSet {
		if !writeSet[n] {
			reads = append(reads, n)
		}
	}
	for n := range writeSet {
		writes = append(writes, n)
	}
	sort.Strings(reads)
	sort.Strings(writes)
	return reads, writes
}

var _ = strings.TrimSpace // silence unused import until diagnostics land
