package moore

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"

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
		name += "$" + p.Name + strconv.FormatUint(params[p.Name], 10)
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

	owned bool // an array some process of the module already touches

	// rw holds summarize's marks during one walk; it is zero between
	// walks.
	rw uint8
}

const (
	netRead uint8 = 1 << iota
	netWritten
	netBlocking
)

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

	// Functions: every signature first, in declaration order, so that a
	// body may call a function declared after it, or itself.
	for _, item := range m.Items {
		if fn, ok := item.(*FuncDecl); ok {
			fname := uname + "_" + fn.Name
			sc.funcs[fn.Name] = fname
			if err := c.declareFunction(fn, fname, sc); err != nil {
				return "", fmt.Errorf("moore: %s: %w", m.Name, err)
			}
		}
	}
	for _, item := range m.Items {
		if fn, ok := item.(*FuncDecl); ok {
			if err := c.genFunction(fn, c.out.Unit(sc.funcs[fn.Name]), sc); err != nil {
				return "", fmt.Errorf("moore: %s: %w", m.Name, err)
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

	// Generate processes and instantiations. Exactly one process may touch
	// an array; it owns it as a var.
	procIdx := 0
	for _, item := range m.Items {
		switch it := item.(type) {
		case *AlwaysBlock, *AssignItem:
			s := summarize(it, sc)
			if _, isAssign := it.(*AssignItem); isAssign && len(s.arrays) > 0 {
				return "", fmt.Errorf("moore: %s: array %q used in a continuous assign", m.Name, s.arrays[0])
			}
			for _, name := range s.arrays {
				ni := sc.nets[name]
				if ni.owned {
					return "", fmt.Errorf("moore: %s: array %q used by more than one process", m.Name, name)
				}
				ni.owned = true
			}
			pname := uname + "_p" + strconv.Itoa(procIdx)
			if err := c.genProcess(it, pname, sc, &s); err != nil {
				return "", fmt.Errorf("moore: %s: %w", m.Name, err)
			}
			// Instantiate the process in the entity.
			var ins, outs []ir.Value
			for _, n := range s.reads {
				ins = append(ins, binding[n])
			}
			for _, n := range s.writes {
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
			if err != nil || v == 0 {
				return 0, err
			}
			return uint64(bits.Len64(v - 1)), nil
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

	// An open or tied port takes its width from the child's signature.
	cu := c.out.Unit(childName)
	var ins, outs []ir.Value
	for _, port := range child.Ports {
		input := port.Dir == "input"
		var arg *ir.Arg
		if input {
			arg = cu.Inputs[len(ins)]
		} else {
			arg = cu.Outputs[len(outs)]
		}
		var sigVal ir.Value
		switch conn := connFor[port.Name].(type) {
		case nil:
			// Unconnected: dangling net.
			s := eb.Sig(eb.ConstInt(arg.Type().Elem, 0))
			s.SetName(it.InstName + "_" + port.Name + "_nc")
			sigVal = s
		case *Ident:
			v, ok := binding[conn.Name]
			if !ok {
				return fmt.Errorf("moore: %s: connection to unknown net %q", m.Name, conn.Name)
			}
			sigVal = v
		case *Number:
			s := eb.Sig(eb.ConstInt(arg.Type().Elem, conn.Value))
			s.SetName(it.InstName + "_" + port.Name + "_tie")
			sigVal = s
		default:
			return fmt.Errorf("moore: %s: unsupported connection expression for port %q (use a plain net)", m.Name, port.Name)
		}
		if input {
			ins = append(ins, sigVal)
		} else {
			outs = append(outs, sigVal)
		}
	}
	inst := eb.Instantiate(childName, ins, outs)
	inst.SetName(it.InstName)
	return nil
}

// summary is what one walk over a process finds: the nets it reads and
// does not write and the nets it writes (its signature, each sorted), the
// unpacked arrays it names (sorted) and the nets it assigns blocking
// (sorted; nil when none).
type summary struct {
	reads, writes, arrays, blocking []string
}

// summarize walks a process once. A process writes the nets its
// assignment targets name and reads every other net it mentions, the
// events it waits on included. $readmemh arguments are resolved at
// elaboration and name nothing.
func summarize(item Item, sc *scope) (s summary) {
	touched := make([]*netInfo, 0, 32) // on the stack while it fits
	mark := func(name string, how uint8) {
		ni := sc.nets[name]
		if ni == nil {
			return
		}
		if ni.rw == 0 {
			touched = append(touched, ni)
		}
		ni.rw |= how
	}
	written := func(name string) { mark(name, netWritten) }
	blocking := func(name string) { mark(name, netWritten|netBlocking) }
	Inspect(item, func(n Node) bool {
		switch x := n.(type) {
		case *Ident:
			mark(x.Name, netRead)
		case *AssignItem:
			LvalueNets(x.Target, written)
		case *AssignStmt:
			if x.Blocking {
				LvalueNets(x.Target, blocking)
			} else {
				LvalueNets(x.Target, written)
			}
		case *IncDec:
			LvalueNets(x.X, written)
		case *SysCallStmt:
			return x.Name != "$readmemh"
		}
		return true
	})
	// One array holds both net lists: reads from the front, writes from
	// the back.
	names := make([]string, len(touched))
	r, w := 0, len(names)
	for _, ni := range touched {
		switch {
		case ni.isArray:
			s.arrays = append(s.arrays, ni.name)
		case ni.rw&netWritten != 0:
			w--
			names[w] = ni.name
			if ni.rw&netBlocking != 0 {
				s.blocking = append(s.blocking, ni.name)
			}
		default:
			names[r] = ni.name
			r++
		}
		ni.rw = 0
	}
	s.reads, s.writes = names[:r:r], names[w:]
	sort.Strings(s.reads)
	sort.Strings(s.writes)
	sort.Strings(s.arrays)
	sort.Strings(s.blocking)
	return s
}
