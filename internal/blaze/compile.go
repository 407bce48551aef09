package blaze

import (
	"fmt"
	"strings"

	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/val"
)

// compiler builds the slot assignment and closures for one unit. Values
// are identified by the unit's shared dense value IDs (ir.Numbering — the
// same scheme the reference interpreter indexes its frames with); the slot
// and signal assignments are dense vid-indexed side tables. Register slots
// stay compacted to first-use order so the register file only holds values
// the compiled code actually touches.
//
// The closures the compiler emits are session-independent: they address
// signals through the proc's slot table (p.sigs[si]) and keep activation
// history (reg edge samples, del previous values) in per-proc state
// arrays, never in captured variables. The compiler's prototype instance
// is used only to read the unit's elaboration-time constants and to
// validate that every signal reference will resolve at instantiation.
type compiler struct {
	cd   *CompiledDesign
	inst *engine.Instance // prototype instance of the unit
	unit *ir.Unit
	num  *ir.Numbering

	slotIdx []int       // value ID -> register slot, -1 until first use
	sigIdx  []int       // value ID -> signal slot, -1 unresolved
	consts  []constSlot // compile-time constants to pre-place in the registers
	nregs   int
	blocks  map[*ir.Block]int // block -> code index

	sigVals    []ir.Value // signal slot -> IR value (instantiation recipe)
	probedSeen []bool     // signal slot -> already in probed
	probed     []int      // entity sensitivity, as signal slots
	waits      [][]int    // wait site -> signal slots
	nDels      int
	regTrig    []int // reg site -> trigger count
}

// constSlot is one pre-placed register constant.
type constSlot struct {
	slot int
	v    val.Value
}

// newCompiler builds a compiler for one unit over its numbering.
func newCompiler(cd *CompiledDesign, inst *engine.Instance) *compiler {
	num := inst.Numbering()
	n := num.Len()
	c := &compiler{
		cd:      cd,
		inst:    inst,
		unit:    inst.Unit,
		num:     num,
		slotIdx: make([]int, n),
		sigIdx:  make([]int, n),
		blocks:  map[*ir.Block]int{},
	}
	for i := range c.slotIdx {
		c.slotIdx[i] = -1
		c.sigIdx[i] = -1
	}
	return c
}

// compileUnit builds the shared compiled form of a proc or entity unit,
// using inst as the prototype instance.
func compileUnit(cd *CompiledDesign, inst *engine.Instance) (*compiledUnit, error) {
	c := newCompiler(cd, inst)
	cu := &compiledUnit{unit: c.unit, entity: c.unit.Kind == ir.UnitEntity}
	for i, b := range c.unit.Blocks {
		c.blocks[b] = i
	}
	// Pre-seed constants known from elaboration.
	consts, isConst := c.inst.ConstTable()
	for id, ok := range isConst {
		if ok {
			c.consts = append(c.consts, constSlot{slot: c.slot(c.num.Value(id)), v: consts[id]})
		}
	}

	for _, b := range c.unit.Blocks {
		bc, err := c.compileBlock(b)
		if err != nil {
			return nil, fmt.Errorf("@%s: %w", c.unit.Name, err)
		}
		cu.code = append(cu.code, bc)
	}
	cu.nregs = c.nregs
	cu.consts = c.consts
	cu.sigVals = c.sigVals
	cu.probed = c.probed
	cu.waits = c.waits
	cu.nDels = c.nDels
	cu.regTrig = c.regTrig
	return cu, nil
}

// slot returns the register slot of v, assigning the next compact slot on
// first use. Identification is by shared value ID: a plain array read.
func (c *compiler) slot(v ir.Value) int {
	id := ir.ValueID(v)
	if id < 0 {
		panic(fmt.Sprintf("blaze: operand %s has no value ID in @%s", v, c.unit.Name))
	}
	if s := c.slotIdx[id]; s >= 0 {
		return s
	}
	s := c.nregs
	c.nregs++
	c.slotIdx[id] = s
	return s
}

// sigSlot assigns a slot in the proc's signal table to a statically-known
// signal reference. The actual SigRef is resolved per instance; compile
// time only validates resolvability against the prototype instance.
func (c *compiler) sigSlot(v ir.Value) (int, error) {
	id := ir.ValueID(v)
	if id < 0 {
		return 0, fmt.Errorf("value %s is not a signal", v)
	}
	if i := c.sigIdx[id]; i >= 0 {
		return i, nil
	}
	if _, err := resolveSigRef(c.inst, v); err != nil {
		return 0, err
	}
	i := len(c.sigVals)
	c.sigVals = append(c.sigVals, v)
	c.probedSeen = append(c.probedSeen, false)
	c.sigIdx[id] = i
	return i, nil
}

// markProbed adds the signal slot to the entity's permanent sensitivity
// (deduplicated per slot here, per signal at instantiation).
func (c *compiler) markProbed(si int) {
	if !c.probedSeen[si] {
		c.probedSeen[si] = true
		c.probed = append(c.probed, si)
	}
}

func (c *compiler) compileBlock(b *ir.Block) (blockCode, error) {
	var bc blockCode
	for _, in := range b.Insts {
		if in.Op.IsTerminator() {
			term, err := c.compileTerm(b, in)
			if err != nil {
				return bc, err
			}
			bc.term = term
			return bc, nil
		}
		st, err := c.compileStep(in)
		if err != nil {
			return bc, err
		}
		if st != nil {
			bc.steps = append(bc.steps, st)
		}
	}
	// Entity bodies have no terminator: suspend after each evaluation.
	bc.term = func(p *proc, e *engine.Engine) (int, error) { return blockSuspend, nil }
	return bc, nil
}

// phiMoves compiles the phi resolution for the edge from -> to.
type move struct {
	src, dst int
	k        val.Value
	isConst  bool
}

func (c *compiler) edgeMoves(from, to *ir.Block) []move {
	var moves []move
	for _, in := range to.Insts {
		if in.Op != ir.OpPhi {
			break
		}
		for i, pb := range in.Dests {
			if pb == from {
				mv := move{dst: c.slot(in)}
				if cv, ok := c.constOperand(in.Args[i]); ok {
					mv.k = cv
					mv.isConst = true
				} else {
					mv.src = c.slot(in.Args[i])
				}
				moves = append(moves, mv)
				break
			}
		}
	}
	return moves
}

func applyMoves(p *proc, moves []move) {
	if len(moves) == 0 {
		return
	}
	// Simultaneous assignment: gather then scatter.
	tmp := make([]val.Value, len(moves))
	for i, m := range moves {
		if m.isConst {
			tmp[i] = m.k
		} else {
			tmp[i] = p.regs[m.src]
		}
	}
	for i, m := range moves {
		p.regs[m.dst] = tmp[i]
	}
}

// constOperand fetches a compile-time constant for an operand if known.
func (c *compiler) constOperand(v ir.Value) (val.Value, bool) {
	if in, ok := v.(*ir.Inst); ok {
		switch in.Op {
		case ir.OpConstInt:
			return val.Int(widthOf(in.Ty), in.IVal), true
		case ir.OpConstTime:
			return val.TimeVal(in.TVal), true
		case ir.OpConstLogic:
			return val.LogicVal(in.LVal), true
		}
	}
	if cv, ok := c.inst.ConstOf(v); ok {
		return cv, true
	}
	return val.Value{}, false
}

func widthOf(ty *ir.Type) int {
	if ty.IsInt() {
		return ty.Width
	}
	return ty.BitWidth()
}

// operand compiles an operand access into a fetch function. Constants
// resolve at compile time.
func (c *compiler) operand(v ir.Value) func(p *proc) val.Value {
	if cv, ok := c.constOperand(v); ok {
		return func(*proc) val.Value { return cv }
	}
	s := c.slot(v)
	return func(p *proc) val.Value { return p.regs[s] }
}

func (c *compiler) compileTerm(b *ir.Block, in *ir.Inst) (func(p *proc, e *engine.Engine) (int, error), error) {
	switch in.Op {
	case ir.OpBr:
		if len(in.Args) == 0 {
			next := c.blocks[in.Dests[0]]
			moves := c.edgeMoves(b, in.Dests[0])
			return func(p *proc, e *engine.Engine) (int, error) {
				applyMoves(p, moves)
				return next, nil
			}, nil
		}
		cond := c.operand(in.Args[0])
		f, t := c.blocks[in.Dests[0]], c.blocks[in.Dests[1]]
		fm, tm := c.edgeMoves(b, in.Dests[0]), c.edgeMoves(b, in.Dests[1])
		return func(p *proc, e *engine.Engine) (int, error) {
			if cond(p).Bits != 0 {
				applyMoves(p, tm)
				return t, nil
			}
			applyMoves(p, fm)
			return f, nil
		}, nil

	case ir.OpWait:
		dest := c.blocks[in.Dests[0]]
		moves := c.edgeMoves(b, in.Dests[0])
		slots := make([]int, 0, len(in.Args))
		for _, a := range in.Args {
			si, err := c.sigSlot(a)
			if err != nil {
				return nil, err
			}
			slots = append(slots, si)
		}
		wi := len(c.waits)
		c.waits = append(c.waits, slots)
		var timeout func(p *proc) val.Value
		if in.TimeArg != nil {
			timeout = c.operand(in.TimeArg)
		}
		return func(p *proc, e *engine.Engine) (int, error) {
			e.Subscribe(p.ProcID(), p.waits[wi])
			if timeout != nil {
				e.ScheduleWake(p.ProcID(), timeout(p).Time())
			}
			applyMoves(p, moves)
			p.cur = dest
			return blockSuspend, nil
		}, nil

	case ir.OpHalt:
		return func(p *proc, e *engine.Engine) (int, error) { return blockHalt, nil }, nil

	case ir.OpRet:
		return nil, fmt.Errorf("ret outside a function")

	case ir.OpUnreachable:
		return func(p *proc, e *engine.Engine) (int, error) {
			return 0, fmt.Errorf("reached unreachable")
		}, nil
	}
	return nil, fmt.Errorf("unsupported terminator %s", in.Op)
}

// compileStep compiles one non-terminator instruction.
func (c *compiler) compileStep(in *ir.Inst) (step, error) {
	switch in.Op {
	case ir.OpConstInt, ir.OpConstTime, ir.OpConstLogic:
		cv, _ := c.constOperand(in)
		c.consts = append(c.consts, constSlot{slot: c.slot(in), v: cv})
		return nil, nil

	case ir.OpPhi:
		c.slot(in) // slot reserved; filled by edge moves
		return nil, nil

	case ir.OpSig, ir.OpInst, ir.OpCon:
		return nil, nil // elaboration artifacts

	case ir.OpPrb:
		si, err := c.sigSlot(in.Args[0])
		if err != nil {
			return nil, err
		}
		c.markProbed(si)
		d := c.slot(in)
		return func(p *proc, e *engine.Engine) error {
			p.regs[d] = e.Probe(p.sigs[si])
			return nil
		}, nil

	case ir.OpDrv:
		si, err := c.sigSlot(in.Args[0])
		if err != nil {
			return nil, err
		}
		value := c.operand(in.Args[1])
		delay := c.operand(in.Args[2])
		if len(in.Args) == 4 {
			cond := c.operand(in.Args[3])
			return func(p *proc, e *engine.Engine) error {
				if cond(p).Bits != 0 {
					e.Drive(p.sigs[si], value(p), delay(p).Time())
				}
				return nil
			}, nil
		}
		return func(p *proc, e *engine.Engine) error {
			e.Drive(p.sigs[si], value(p), delay(p).Time())
			return nil
		}, nil

	case ir.OpReg:
		return c.compileReg(in)

	case ir.OpDel:
		si, err := c.sigSlot(in.Args[0])
		if err != nil {
			return nil, err
		}
		srcSi, err := c.sigSlot(in.Args[1])
		if err != nil {
			return nil, err
		}
		c.markProbed(srcSi)
		delay := c.operand(in.Args[2])
		di := c.nDels
		c.nDels++
		return func(p *proc, e *engine.Engine) error {
			cur := e.Probe(p.sigs[srcSi])
			d := &p.dels[di]
			if !d.seen {
				d.seen = true
				d.prev = cur
				return nil
			}
			if !cur.Eq(d.prev) {
				d.prev = cur
				e.Drive(p.sigs[si], cur, delay(p).Time())
			}
			return nil
		}, nil

	case ir.OpVar, ir.OpAlloc:
		d := c.slot(in)
		if in.Op == ir.OpAlloc {
			init := val.Default(in.Ty.Elem)
			return func(p *proc, e *engine.Engine) error {
				p.regs[d] = init
				return nil
			}, nil
		}
		init := c.operand(in.Args[0])
		return func(p *proc, e *engine.Engine) error {
			p.regs[d] = init(p)
			return nil
		}, nil

	case ir.OpLd:
		d := c.slot(in)
		src := c.slot(in.Args[0])
		return func(p *proc, e *engine.Engine) error {
			p.regs[d] = p.regs[src]
			return nil
		}, nil

	case ir.OpSt:
		dst := c.slot(in.Args[0])
		v := c.operand(in.Args[1])
		return func(p *proc, e *engine.Engine) error {
			p.regs[dst] = v(p)
			return nil
		}, nil

	case ir.OpFree:
		return nil, nil

	case ir.OpCall:
		return c.compileCall(in)

	case ir.OpExtF:
		// Signal projection is handled statically by sigSlot when used as
		// a signal; a value extraction compiles to a step.
		if in.Ty.IsSignal() {
			if _, err := c.sigSlot(in); err != nil {
				return nil, err
			}
			return nil, nil
		}
		d := c.slot(in)
		base := c.operand(in.Args[0])
		if len(in.Args) == 2 {
			idx := c.operand(in.Args[1])
			return func(p *proc, e *engine.Engine) error {
				out, err := val.ExtFDyn(base(p), idx(p).Bits)
				if err != nil {
					return err
				}
				p.regs[d] = out
				return nil
			}, nil
		}
		k := in.Imm0
		return func(p *proc, e *engine.Engine) error {
			out, err := val.ExtF(base(p), k)
			if err != nil {
				return err
			}
			p.regs[d] = out
			return nil
		}, nil

	case ir.OpExtS:
		if in.Ty.IsSignal() {
			if _, err := c.sigSlot(in); err != nil {
				return nil, err
			}
			return nil, nil
		}
		d := c.slot(in)
		base := c.operand(in.Args[0])
		off, n := in.Imm0, in.Imm1
		// Integer bit slices are the hot path: specialize.
		if in.Args[0].Type().IsInt() {
			return func(p *proc, e *engine.Engine) error {
				p.regs[d] = val.Int(n, base(p).Bits>>uint(off))
				return nil
			}, nil
		}
		return func(p *proc, e *engine.Engine) error {
			out, err := val.ExtS(base(p), off, n)
			if err != nil {
				return err
			}
			p.regs[d] = out
			return nil
		}, nil

	case ir.OpInsF:
		d := c.slot(in)
		base := c.operand(in.Args[0])
		v := c.operand(in.Args[1])
		if len(in.Args) == 3 {
			idx := c.operand(in.Args[2])
			return func(p *proc, e *engine.Engine) error {
				out, err := val.InsFDyn(base(p), v(p), idx(p).Bits)
				if err != nil {
					return err
				}
				p.regs[d] = out
				return nil
			}, nil
		}
		k := in.Imm0
		return func(p *proc, e *engine.Engine) error {
			out, err := val.InsF(base(p), v(p), k)
			if err != nil {
				return err
			}
			p.regs[d] = out
			return nil
		}, nil

	case ir.OpInsS:
		d := c.slot(in)
		base := c.operand(in.Args[0])
		v := c.operand(in.Args[1])
		off, n := in.Imm0, in.Imm1
		if in.Args[0].Type().IsInt() {
			w := in.Args[0].Type().Width
			mask := ir.MaskWidth(^uint64(0), n) << uint(off)
			return func(p *proc, e *engine.Engine) error {
				bits := base(p).Bits&^mask | v(p).Bits<<uint(off)&mask
				p.regs[d] = val.Int(w, bits)
				return nil
			}, nil
		}
		return func(p *proc, e *engine.Engine) error {
			out, err := val.InsS(base(p), v(p), off, n)
			if err != nil {
				return err
			}
			p.regs[d] = out
			return nil
		}, nil

	case ir.OpMux:
		d := c.slot(in)
		arr := c.operand(in.Args[0])
		sel := c.operand(in.Args[1])
		return func(p *proc, e *engine.Engine) error {
			out, err := val.Mux(arr(p), sel(p))
			if err != nil {
				return err
			}
			p.regs[d] = out
			return nil
		}, nil

	case ir.OpArray, ir.OpStruct:
		d := c.slot(in)
		fetch := make([]func(p *proc) val.Value, len(in.Args))
		for i, a := range in.Args {
			fetch[i] = c.operand(a)
		}
		return func(p *proc, e *engine.Engine) error {
			elems := make([]val.Value, len(fetch))
			for i, f := range fetch {
				elems[i] = f(p)
			}
			p.regs[d] = val.Agg(elems)
			return nil
		}, nil

	case ir.OpNot, ir.OpNeg:
		d := c.slot(in)
		a := c.operand(in.Args[0])
		op, ty := in.Op, in.Ty
		if !ty.IsInt() && !ty.IsEnum() {
			// Logic vectors take the nine-valued evaluator; the integer
			// fast path below would clobber them with a val.Int (a blaze
			// miscompile of "not lN" found by the differential fuzzer).
			return func(p *proc, e *engine.Engine) error {
				out, err := val.Unary(op, ty, a(p))
				if err != nil {
					return err
				}
				p.regs[d] = out
				return nil
			}, nil
		}
		w := widthOf(ty)
		if op == ir.OpNot {
			return func(p *proc, e *engine.Engine) error {
				p.regs[d] = val.Int(w, ^a(p).Bits)
				return nil
			}, nil
		}
		return func(p *proc, e *engine.Engine) error {
			p.regs[d] = val.Int(w, -a(p).Bits)
			return nil
		}, nil
	}

	if in.Op.IsBinary() || in.Op.IsCompare() {
		return c.compileBinary(in)
	}
	return nil, fmt.Errorf("unsupported instruction %s", in.Op)
}

// compileBinary specializes the integer fast paths.
func (c *compiler) compileBinary(in *ir.Inst) (step, error) {
	d := c.slot(in)
	a := c.operand(in.Args[0])
	b := c.operand(in.Args[1])
	op := in.Op

	if in.Args[0].Type().IsInt() || in.Args[0].Type().IsEnum() {
		w := widthOf(in.Args[0].Type())
		var f func(x, y uint64) uint64
		switch op {
		case ir.OpAnd:
			f = func(x, y uint64) uint64 { return x & y }
		case ir.OpOr:
			f = func(x, y uint64) uint64 { return x | y }
		case ir.OpXor:
			f = func(x, y uint64) uint64 { return x ^ y }
		case ir.OpAdd:
			f = func(x, y uint64) uint64 { return x + y }
		case ir.OpSub:
			f = func(x, y uint64) uint64 { return x - y }
		case ir.OpMul:
			f = func(x, y uint64) uint64 { return x * y }
		case ir.OpShl:
			f = func(x, y uint64) uint64 {
				if y >= 64 {
					return 0
				}
				return x << y
			}
		case ir.OpShr:
			f = func(x, y uint64) uint64 {
				if y >= 64 {
					return 0
				}
				return x >> y
			}
		case ir.OpAshr:
			f = func(x, y uint64) uint64 {
				sh := y
				if sh >= uint64(w) {
					sh = uint64(w - 1)
				}
				return uint64(ir.SignExtend(x, w) >> sh)
			}
		case ir.OpEq:
			return c.boolStep(d, func(p *proc) bool { return a(p).Eq(b(p)) }), nil
		case ir.OpNeq:
			return c.boolStep(d, func(p *proc) bool { return !a(p).Eq(b(p)) }), nil
		case ir.OpUlt:
			return c.boolStep(d, func(p *proc) bool { return a(p).Bits < b(p).Bits }), nil
		case ir.OpUgt:
			return c.boolStep(d, func(p *proc) bool { return a(p).Bits > b(p).Bits }), nil
		case ir.OpUle:
			return c.boolStep(d, func(p *proc) bool { return a(p).Bits <= b(p).Bits }), nil
		case ir.OpUge:
			return c.boolStep(d, func(p *proc) bool { return a(p).Bits >= b(p).Bits }), nil
		case ir.OpSlt:
			return c.boolStep(d, func(p *proc) bool {
				return ir.SignExtend(a(p).Bits, w) < ir.SignExtend(b(p).Bits, w)
			}), nil
		case ir.OpSgt:
			return c.boolStep(d, func(p *proc) bool {
				return ir.SignExtend(a(p).Bits, w) > ir.SignExtend(b(p).Bits, w)
			}), nil
		case ir.OpSle:
			return c.boolStep(d, func(p *proc) bool {
				return ir.SignExtend(a(p).Bits, w) <= ir.SignExtend(b(p).Bits, w)
			}), nil
		case ir.OpSge:
			return c.boolStep(d, func(p *proc) bool {
				return ir.SignExtend(a(p).Bits, w) >= ir.SignExtend(b(p).Bits, w)
			}), nil
		case ir.OpUdiv, ir.OpSdiv, ir.OpUmod, ir.OpSmod:
			return func(p *proc, e *engine.Engine) error {
				out, err := val.Binary(op, a(p), b(p))
				if err != nil {
					return err
				}
				p.regs[d] = out
				return nil
			}, nil
		}
		if f != nil {
			return func(p *proc, e *engine.Engine) error {
				p.regs[d] = val.Int(w, f(a(p).Bits, b(p).Bits))
				return nil
			}, nil
		}
	}
	// Generic path (logic vectors, times, aggregates).
	return func(p *proc, e *engine.Engine) error {
		out, err := val.Binary(op, a(p), b(p))
		if err != nil {
			return err
		}
		p.regs[d] = out
		return nil
	}, nil
}

func (c *compiler) boolStep(d int, f func(p *proc) bool) step {
	return func(p *proc, e *engine.Engine) error {
		if f(p) {
			p.regs[d] = val.Int(1, 1)
		} else {
			p.regs[d] = val.Int(1, 0)
		}
		return nil
	}
}

// compileReg compiles a reg storage element. The edge-sample history lives
// in the proc's regState array, so instances (and sessions) sharing this
// code never share mutable state.
func (c *compiler) compileReg(in *ir.Inst) (step, error) {
	si, err := c.sigSlot(in.Args[0])
	if err != nil {
		return nil, err
	}
	var delay func(p *proc) val.Value
	if in.Delay != nil {
		delay = c.operand(in.Delay)
	}
	type trig struct {
		mode    ir.RegMode
		value   func(p *proc) val.Value
		trigger func(p *proc) val.Value
		gate    func(p *proc) val.Value
	}
	var trigs []trig
	for _, tr := range in.Triggers {
		t := trig{
			mode:    tr.Mode,
			value:   c.operand(tr.Value),
			trigger: c.operand(tr.Trigger),
		}
		if tr.Gate != nil {
			t.gate = c.operand(tr.Gate)
		}
		trigs = append(trigs, t)
	}
	ri := len(c.regTrig)
	c.regTrig = append(c.regTrig, len(trigs))
	return func(p *proc, e *engine.Engine) error {
		st := &p.regst[ri]
		if !st.seen {
			st.seen = true
			for i, t := range trigs {
				st.prev[i] = t.trigger(p).Bits != 0
			}
			return nil
		}
		for i, t := range trigs {
			now := t.trigger(p).Bits != 0
			was := st.prev[i]
			st.prev[i] = now
			var fired bool
			switch t.mode {
			case ir.RegRise:
				fired = !was && now
			case ir.RegFall:
				fired = was && !now
			case ir.RegBoth:
				fired = was != now
			case ir.RegHigh:
				fired = now
			case ir.RegLow:
				fired = !now
			}
			if !fired {
				continue
			}
			if t.gate != nil && t.gate(p).Bits == 0 {
				continue
			}
			d := ir.Time{}
			if delay != nil {
				d = delay(p).Time()
			}
			e.Drive(p.sigs[si], t.value(p), d)
			break
		}
		return nil
	}, nil
}

// compileCall dispatches intrinsics and function calls.
func (c *compiler) compileCall(in *ir.Inst) (step, error) {
	fetch := make([]func(p *proc) val.Value, len(in.Args))
	for i, a := range in.Args {
		fetch[i] = c.operand(a)
	}
	if strings.HasPrefix(in.Callee, "llhd.") {
		name := in.Callee
		d := -1
		if !in.Ty.IsVoid() {
			d = c.slot(in)
		}
		return func(p *proc, e *engine.Engine) error {
			switch name {
			case "llhd.assert":
				if fetch[0](p).Bits == 0 {
					e.OnAssert(name, e.Now)
				}
			case "llhd.display":
				if e.Display != nil {
					parts := make([]string, len(fetch))
					for i, f := range fetch {
						parts[i] = f(p).String()
					}
					e.Display(strings.Join(parts, " "))
				}
			case "llhd.time":
				if d >= 0 {
					p.regs[d] = val.TimeVal(e.Now)
				}
			default:
				return fmt.Errorf("unknown intrinsic @%s", name)
			}
			return nil
		}, nil
	}

	cf, err := c.cd.compileFunc(in.Callee)
	if err != nil {
		return nil, err
	}
	d := -1
	if !in.Ty.IsVoid() {
		d = c.slot(in)
	}
	return func(p *proc, e *engine.Engine) error {
		rv, err := cf.invoke(p.sim, e, fetch, p)
		if err != nil {
			return err
		}
		if d >= 0 {
			p.regs[d] = rv
		}
		return nil
	}, nil
}

// compileFuncBlock compiles one function block, treating ret as the
// terminator writing the special return slot.
func (c *compiler) compileFuncBlock(b *ir.Block) (blockCode, error) {
	var bc blockCode
	for _, in := range b.Insts {
		if in.Op == ir.OpRet {
			if len(in.Args) == 1 {
				src := c.operand(in.Args[0])
				bc.term = func(p *proc, e *engine.Engine) (int, error) {
					p.retVal = src(p)
					return blockHalt, nil
				}
			} else {
				bc.term = func(p *proc, e *engine.Engine) (int, error) { return blockHalt, nil }
			}
			return bc, nil
		}
		if in.Op.IsTerminator() {
			term, err := c.compileTerm(b, in)
			if err != nil {
				return bc, err
			}
			bc.term = term
			return bc, nil
		}
		st, err := c.compileStep(in)
		if err != nil {
			return bc, err
		}
		if st != nil {
			bc.steps = append(bc.steps, st)
		}
	}
	return bc, fmt.Errorf("block %s lacks a terminator", b)
}
