package svsim

import (
	"fmt"

	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/moore"
	"llhd/internal/val"
)

// cval is an interpreted expression value.
type cval struct {
	bits   uint64
	width  int
	signed bool
	isTime bool
	t      ir.Time
	fill   bool
}

func mask(v uint64, w int) uint64 { return ir.MaskWidth(v, w) }

func (c cval) adapt(w int) uint64 {
	if c.fill {
		if c.bits != 0 {
			return mask(^uint64(0), w)
		}
		return 0
	}
	b := c.bits
	if c.signed && c.width < w {
		b = uint64(ir.SignExtend(b, c.width))
	}
	return mask(b, w)
}

// exec interprets one statement.
func (p *astProc) exec(s moore.Stmt) (ctrl, error) {
	switch st := s.(type) {
	case nil, *moore.NullStmt:
		return ctrlNone, nil

	case *moore.BlockStmt:
		for _, d := range st.Decls {
			if err := p.declLocals(d); err != nil {
				return ctrlNone, err
			}
		}
		for _, x := range st.Stmts {
			c, err := p.exec(x)
			if c != ctrlNone || err != nil {
				return c, err
			}
		}
		return ctrlNone, nil

	case *moore.AssignStmt:
		return ctrlNone, p.assign(st)

	case *moore.IfStmt:
		cond, err := p.eval(st.Cond)
		if err != nil {
			return ctrlNone, err
		}
		if cond.bits != 0 {
			return p.exec(st.Then)
		}
		return p.exec(st.Else)

	case *moore.CaseStmt:
		subj, err := p.eval(st.Subject)
		if err != nil {
			return ctrlNone, err
		}
		for _, item := range st.Items {
			for _, lbl := range item.Labels {
				lv, err := p.eval(lbl)
				if err != nil {
					return ctrlNone, err
				}
				if lv.adapt(subj.width) == subj.bits {
					return p.exec(item.Body)
				}
			}
		}
		return p.exec(st.Default)

	case *moore.ForStmt:
		if c, err := p.exec(st.Init); c != ctrlNone || err != nil {
			return c, err
		}
		for iter := 0; iter < 100_000_000; iter++ {
			if st.Cond != nil {
				cond, err := p.eval(st.Cond)
				if err != nil {
					return ctrlNone, err
				}
				if cond.bits == 0 {
					return ctrlNone, nil
				}
			}
			if c, err := p.exec(st.Body); c != ctrlNone || err != nil {
				return c, err
			}
			if st.Step != nil {
				if c, err := p.exec(st.Step); c != ctrlNone || err != nil {
					return c, err
				}
			}
		}
		return ctrlNone, fmt.Errorf("for loop exceeded iteration budget: %w", engine.ErrStepLimit)

	case *moore.WhileStmt:
		first := st.DoWhile
		for iter := 0; iter < 100_000_000; iter++ {
			if !first {
				cond, err := p.eval(st.Cond)
				if err != nil {
					return ctrlNone, err
				}
				if cond.bits == 0 {
					return ctrlNone, nil
				}
			}
			first = false
			if c, err := p.exec(st.Body); c != ctrlNone || err != nil {
				return c, err
			}
			if st.DoWhile {
				cond, err := p.eval(st.Cond)
				if err != nil {
					return ctrlNone, err
				}
				if cond.bits == 0 {
					return ctrlNone, nil
				}
			}
		}
		return ctrlNone, fmt.Errorf("while loop exceeded iteration budget: %w", engine.ErrStepLimit)

	case *moore.RepeatStmt:
		n, err := p.eval(st.Count)
		if err != nil {
			return ctrlNone, err
		}
		for i := uint64(0); i < n.bits; i++ {
			if c, err := p.exec(st.Body); c != ctrlNone || err != nil {
				return c, err
			}
		}
		return ctrlNone, nil

	case *moore.DelayStmt:
		d, err := p.eval(st.Delay)
		if err != nil {
			return ctrlNone, err
		}
		if !d.isTime {
			return ctrlNone, fmt.Errorf("delay is not a time")
		}
		t := d.t
		if !p.suspend(yieldMsg{timeout: &t}) {
			return ctrlStop, nil
		}
		return p.exec(st.Inner)

	case *moore.WaitEventStmt:
		return p.waitEvents(st)

	case *moore.ExprStmt:
		switch x := st.X.(type) {
		case *moore.IncDec:
			_, err := p.eval(x)
			return ctrlNone, err
		case *moore.CallExpr:
			_, err := p.eval(x)
			return ctrlNone, err
		}
		_, err := p.eval(st.X)
		return ctrlNone, err

	case *moore.AssertStmt:
		cond, err := p.eval(st.Cond)
		if err != nil {
			return ctrlNone, err
		}
		if cond.bits == 0 {
			p.e.OnAssert("assert", p.e.Now)
		}
		return ctrlNone, nil

	case *moore.SysCallStmt:
		switch st.Name {
		case "$finish", "$stop":
			return ctrlFinish, nil
		case "$return":
			if len(st.Args) == 1 && st.Args[0] != nil {
				v, err := p.eval(st.Args[0])
				if err != nil {
					return ctrlNone, err
				}
				p.locals["$ret"] = val.Int(64, v.bits)
			}
			return ctrlReturn, nil
		case "$error", "$fatal":
			// One assertion failure each, as the Moore flow lowers both
			// to a failing llhd.assert; neither stops the run.
			p.e.OnAssert(st.Name, p.e.Now)
			return ctrlNone, nil
		case "$display", "$write", "$info", "$warning",
			"$readmemh", "$dumpfile", "$dumpvars", "$monitor":
			return ctrlNone, nil
		}
		return ctrlNone, fmt.Errorf("unsupported system task %s", st.Name)
	}
	return ctrlNone, fmt.Errorf("unsupported statement %T", s)
}

func (p *astProc) waitEvents(st *moore.WaitEventStmt) (ctrl, error) {
	l := p.waits[st]
	if l == nil { // a wait inside a function, resolved on first use
		var err error
		if l, err = p.sc.resolveEvents("event", st.Events); err != nil {
			return ctrlNone, err
		}
		p.waits[st] = l
	}
	for { // suspend until one of the list's edges fires
		l.sample(p.e)
		if !p.suspend(yieldMsg{refs: l.refs}) {
			return ctrlStop, nil
		}
		if l.fired(p.e) {
			return ctrlNone, nil
		}
	}
}

func (p *astProc) declLocals(d *moore.NetDecl) error {
	w, err := p.sc.typeWidth(d.Type)
	if err != nil {
		return err
	}
	for i, n := range d.Names {
		init := uint64(0)
		if d.Inits[i] != nil {
			v, err := p.eval(d.Inits[i])
			if err != nil {
				return err
			}
			init = v.adapt(w)
		}
		p.locals[n] = val.Value{Kind: val.KindInt, Width: int32(w), Bits: init}
	}
	return nil
}

// readName resolves an identifier read with commercial-style immediate
// visibility of blocking writes.
func (p *astProc) readName(name string) (cval, error) {
	if lv, ok := p.locals[name]; ok {
		return cval{bits: lv.Bits, width: int(lv.Width)}, nil
	}
	if v, ok := p.sc.consts[name]; ok {
		return cval{bits: v, width: 32}, nil
	}
	b := p.sc.nets[name]
	if b == nil {
		return cval{}, fmt.Errorf("unknown identifier %q", name)
	}
	if p.pending.has[b.slot] {
		pv := p.pendVal[b.slot]
		return cval{bits: pv.Bits, width: int(pv.Width), signed: b.signed}, nil
	}
	p.reads.add(b.slot)
	v := p.e.Probe(b.ref)
	return cval{bits: v.Bits, width: b.width, signed: b.signed}, nil
}

func (p *astProc) assign(st *moore.AssignStmt) error {
	rhs, err := p.eval(st.Value)
	if err != nil {
		return err
	}
	var delay ir.Time
	if st.Delay != nil {
		d, err := p.eval(st.Delay)
		if err != nil {
			return err
		}
		delay = d.t
	}

	switch t := st.Target.(type) {
	case *moore.Ident:
		if lv, ok := p.locals[t.Name]; ok {
			p.locals[t.Name] = val.Int(int(lv.Width), rhs.adapt(int(lv.Width)))
			return nil
		}
		b := p.sc.nets[t.Name]
		if b == nil {
			return fmt.Errorf("assignment to unknown name %q", t.Name)
		}
		v := val.Int(b.width, rhs.adapt(b.width))
		if st.Blocking {
			p.write(b, v)
			return nil
		}
		p.e.Drive(b.ref, v, delay)
		return nil

	case *moore.Index:
		id, ok := t.X.(*moore.Ident)
		if !ok {
			return fmt.Errorf("unsupported assignment target")
		}
		idx, err := p.eval(t.Idx)
		if err != nil {
			return err
		}
		if arr, isArr := p.sc.arrays[id.Name]; isArr {
			i := int(idx.bits)
			if i < 0 || i >= len(arr.elems) {
				return fmt.Errorf("array index %d out of range on %q", i, id.Name)
			}
			arr.elems[i] = rhs.adapt(arr.width)
			return nil
		}
		// Bit write: read-modify-write.
		cur, err := p.readName(id.Name)
		if err != nil {
			return err
		}
		bit := rhs.adapt(1)
		upd := cur.bits&^(1<<idx.bits) | bit<<idx.bits
		return p.writeWhole(id.Name, upd, st.Blocking, delay)

	case *moore.Slice:
		id, ok := t.X.(*moore.Ident)
		if !ok {
			return fmt.Errorf("unsupported assignment target")
		}
		if t.Up {
			// x[base +: w] = rhs: clear the field, or the value in.
			wamt, err := p.sc.constEval(t.Lsb)
			if err != nil {
				return fmt.Errorf("indexed part select width must be constant: %v", err)
			}
			w := int(wamt)
			cur, err := p.readName(id.Name)
			if err != nil {
				return err
			}
			if w <= 0 || w > cur.width {
				return fmt.Errorf("indexed part select width %d out of range", w)
			}
			idx, err := p.eval(t.Msb)
			if err != nil {
				return err
			}
			m := mask(^uint64(0), w) << idx.bits
			upd := cur.bits&^m | rhs.adapt(w)<<idx.bits
			return p.writeWhole(id.Name, upd, st.Blocking, delay)
		}
		msb, err := p.sc.constEval(t.Msb)
		if err != nil {
			return err
		}
		lsb, err := p.sc.constEval(t.Lsb)
		if err != nil {
			return err
		}
		if msb < lsb {
			msb, lsb = lsb, msb
		}
		w := int(msb-lsb) + 1
		cur, err := p.readName(id.Name)
		if err != nil {
			return err
		}
		m := mask(^uint64(0), w) << lsb
		upd := cur.bits&^m | rhs.adapt(w)<<lsb
		return p.writeWhole(id.Name, upd, st.Blocking, delay)

	case *moore.Concat:
		total := 0
		type piece struct {
			name string
			w    int
		}
		var pieces []piece
		for _, part := range t.Parts {
			id, ok := part.(*moore.Ident)
			if !ok {
				return fmt.Errorf("concat target parts must be nets")
			}
			w := 0
			if lv, isLocal := p.locals[id.Name]; isLocal {
				w = int(lv.Width)
			} else if b := p.sc.nets[id.Name]; b != nil {
				w = b.width
			}
			pieces = append(pieces, piece{id.Name, w})
			total += w
		}
		whole := rhs.adapt(total)
		off := total
		for _, pc := range pieces {
			off -= pc.w
			part := mask(whole>>off, pc.w)
			if lv, isLocal := p.locals[pc.name]; isLocal {
				p.locals[pc.name] = val.Int(int(lv.Width), part)
				continue
			}
			if err := p.writeWhole(pc.name, part, st.Blocking, delay); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unsupported assignment target %T", st.Target)
}

func (p *astProc) writeWhole(name string, bits uint64, blocking bool, delay ir.Time) error {
	if lv, ok := p.locals[name]; ok {
		p.locals[name] = val.Int(int(lv.Width), bits)
		return nil
	}
	b := p.sc.nets[name]
	if b == nil {
		return fmt.Errorf("assignment to unknown name %q", name)
	}
	v := val.Int(b.width, mask(bits, b.width))
	if blocking {
		p.write(b, v)
		return nil
	}
	p.e.Drive(b.ref, v, delay)
	return nil
}
