// Package bitcode implements the binary on-disk representation of LLHD
// modules. The paper (§2, §6.3) plans a bitcode format and estimates its
// size with "run-length encoding for numbers, interning of strings and
// types, compact encodings for frequently-used primitive types and value
// references"; this package implements exactly that: a type table, a
// string table, varint-encoded instruction streams, and local value
// references by index. Table 4's "Bitcode" column is measured, not
// estimated, against this encoder.
package bitcode

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"llhd/internal/ir"
	"llhd/internal/logic"
)

// magic identifies LLHD bitcode files ("LLHD" + version 2; version 2
// added the logic-constant payload to instruction records).
var magic = []byte{'L', 'L', 'H', 'D', 2}

// Encode serializes the module.
func Encode(m *ir.Module) ([]byte, error) {
	e := &encoder{
		types:   map[*ir.Type]int{},
		strings: map[string]int{},
	}
	var body bytes.Buffer
	e.uvarint(&body, uint64(len(m.Units)))
	for _, u := range m.Units {
		if err := e.unit(&body, u); err != nil {
			return nil, err
		}
	}

	var out bytes.Buffer
	out.Write(magic)
	e.uvarint(&out, uint64(len(e.stringList)))
	for _, s := range e.stringList {
		e.uvarint(&out, uint64(len(s)))
		out.WriteString(s)
	}
	e.uvarint(&out, uint64(len(e.typeList)))
	for _, t := range e.typeList {
		e.typeDef(&out, t)
	}
	e.uvarint(&out, uint64(len(m.Name)))
	out.WriteString(m.Name)
	out.Write(body.Bytes())
	return out.Bytes(), nil
}

type encoder struct {
	types      map[*ir.Type]int
	typeList   []*ir.Type
	strings    map[string]int
	stringList []string
}

func (e *encoder) uvarint(w *bytes.Buffer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func (e *encoder) str(s string) int {
	if i, ok := e.strings[s]; ok {
		return i
	}
	i := len(e.stringList)
	e.strings[s] = i
	e.stringList = append(e.stringList, s)
	return i
}

// typeRef interns a type (recursively) and returns its table index.
func (e *encoder) typeRef(t *ir.Type) int {
	if i, ok := e.types[t]; ok {
		return i
	}
	// Intern children first so definitions only reference earlier rows.
	if t.Elem != nil {
		e.typeRef(t.Elem)
	}
	for _, f := range t.Fields {
		e.typeRef(f)
	}
	i := len(e.typeList)
	e.types[t] = i
	e.typeList = append(e.typeList, t)
	return i
}

// typeDef writes one type table row.
func (e *encoder) typeDef(w *bytes.Buffer, t *ir.Type) {
	w.WriteByte(byte(t.Kind))
	switch t.Kind {
	case ir.IntKind, ir.EnumKind, ir.LogicKind:
		e.uvarint(w, uint64(t.Width))
	case ir.PointerKind, ir.SignalKind:
		e.uvarint(w, uint64(e.types[t.Elem]))
	case ir.ArrayKind:
		e.uvarint(w, uint64(t.Width))
		e.uvarint(w, uint64(e.types[t.Elem]))
	case ir.StructKind:
		e.uvarint(w, uint64(len(t.Fields)))
		for _, f := range t.Fields {
			e.uvarint(w, uint64(e.types[f]))
		}
	case ir.FuncKind:
		e.uvarint(w, uint64(e.types[t.Elem]))
		e.uvarint(w, uint64(len(t.Fields)))
		for _, f := range t.Fields {
			e.uvarint(w, uint64(e.types[f]))
		}
	}
}

// unit writes one unit: signature, blocks, and the instruction stream with
// local value references by dense index.
func (e *encoder) unit(w *bytes.Buffer, u *ir.Unit) error {
	w.WriteByte(byte(u.Kind))
	e.uvarint(w, uint64(e.str(u.Name)))
	e.uvarint(w, uint64(len(u.Inputs)))
	for _, a := range u.Inputs {
		e.uvarint(w, uint64(e.str(a.ValueName())))
		e.uvarint(w, uint64(e.typeRef(a.Type())))
	}
	e.uvarint(w, uint64(len(u.Outputs)))
	for _, a := range u.Outputs {
		e.uvarint(w, uint64(e.str(a.ValueName())))
		e.uvarint(w, uint64(e.typeRef(a.Type())))
	}
	e.uvarint(w, uint64(e.typeRef(u.RetType)))

	// Dense value numbering: inputs, outputs, then instruction results.
	valueIdx := map[ir.Value]int{}
	next := 0
	for _, a := range u.Inputs {
		valueIdx[a] = next
		next++
	}
	for _, a := range u.Outputs {
		valueIdx[a] = next
		next++
	}
	blockIdx := map[*ir.Block]int{}
	for i, b := range u.Blocks {
		blockIdx[b] = i
	}
	u.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		valueIdx[in] = next
		next++
	})

	ref := func(v ir.Value) (uint64, error) {
		if i, ok := valueIdx[v]; ok {
			return uint64(i), nil
		}
		return 0, fmt.Errorf("bitcode: operand %s not local to @%s", v, u.Name)
	}

	e.uvarint(w, uint64(len(u.Blocks)))
	for _, b := range u.Blocks {
		e.uvarint(w, uint64(e.str(b.ValueName())))
		e.uvarint(w, uint64(len(b.Insts)))
		for _, in := range b.Insts {
			w.WriteByte(byte(in.Op))
			e.uvarint(w, uint64(e.typeRef(in.Ty)))
			e.uvarint(w, uint64(e.str(in.ValueName())))
			e.uvarint(w, in.IVal)
			e.uvarint(w, uint64(in.TVal.Fs))
			e.uvarint(w, uint64(in.TVal.Delta))
			e.uvarint(w, uint64(in.TVal.Eps))
			e.uvarint(w, uint64(int64(in.Imm0)))
			e.uvarint(w, uint64(int64(in.Imm1)))
			e.uvarint(w, uint64(e.str(in.Callee)))
			e.uvarint(w, uint64(in.NumIns))
			e.uvarint(w, uint64(len(in.LVal)))
			for _, lx := range in.LVal {
				w.WriteByte(byte(lx))
			}

			e.uvarint(w, uint64(len(in.Args)))
			for _, a := range in.Args {
				r, err := ref(a)
				if err != nil {
					return err
				}
				e.uvarint(w, r)
			}
			e.uvarint(w, uint64(len(in.Dests)))
			for _, d := range in.Dests {
				e.uvarint(w, uint64(blockIdx[d]))
			}
			if in.TimeArg != nil {
				w.WriteByte(1)
				r, err := ref(in.TimeArg)
				if err != nil {
					return err
				}
				e.uvarint(w, r)
			} else {
				w.WriteByte(0)
			}
			if in.Delay != nil {
				w.WriteByte(1)
				r, err := ref(in.Delay)
				if err != nil {
					return err
				}
				e.uvarint(w, r)
			} else {
				w.WriteByte(0)
			}
			e.uvarint(w, uint64(len(in.Triggers)))
			for _, tr := range in.Triggers {
				w.WriteByte(byte(tr.Mode))
				rv, err := ref(tr.Value)
				if err != nil {
					return err
				}
				e.uvarint(w, rv)
				rt, err := ref(tr.Trigger)
				if err != nil {
					return err
				}
				e.uvarint(w, rt)
				if tr.Gate != nil {
					w.WriteByte(1)
					rg, err := ref(tr.Gate)
					if err != nil {
						return err
					}
					e.uvarint(w, rg)
				} else {
					w.WriteByte(0)
				}
			}
		}
	}
	return nil
}

// Decode deserializes a module encoded by Encode. The bytes may come from
// anywhere (the design cache reads them back from disk): every count is
// bounded by the bytes that remain, every index by the table it points
// into, and whatever else a malformed input trips over surfaces as an
// error here, never as a panic in the caller.
func Decode(data []byte) (m *ir.Module, err error) {
	if len(data) < len(magic) || !bytes.Equal(data[:len(magic)], magic) {
		return nil, fmt.Errorf("bitcode: bad magic")
	}
	defer func() {
		if r := recover(); r != nil {
			m, err = nil, fmt.Errorf("bitcode: malformed input: %v", r)
		}
	}()
	d := &decoder{buf: bytes.NewBuffer(data[len(magic):])}

	nstr, err := d.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < nstr; i++ {
		s, err := d.str()
		if err != nil {
			return nil, err
		}
		d.strings = append(d.strings, s)
	}
	ntypes, err := d.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < ntypes; i++ {
		t, err := d.typeDef()
		if err != nil {
			return nil, err
		}
		d.types = append(d.types, t)
	}
	name, err := d.str()
	if err != nil {
		return nil, err
	}
	m = ir.NewModule(name)
	nunits, err := d.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < nunits; i++ {
		u, err := d.unit()
		if err != nil {
			return nil, err
		}
		if err := m.Add(u); err != nil {
			return nil, err
		}
	}
	return m, nil
}

type decoder struct {
	buf     *bytes.Buffer
	strings []string
	types   []*ir.Type
}

func (d *decoder) uvarint() (uint64, error) {
	return binary.ReadUvarint(d.buf)
}

// count reads the length of something that follows in the stream. Every
// element takes at least a byte, so a count beyond the bytes that remain
// is malformed; rejecting it here keeps allocation proportional to the
// input.
func (d *decoder) count() (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(d.buf.Len()) {
		return 0, fmt.Errorf("bitcode: count %d exceeds the %d bytes that remain", n, d.buf.Len())
	}
	return int(n), nil
}

// index reads a reference into a table of n entries.
func (d *decoder) index(what string, n int) (int, error) {
	i, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if i >= uint64(n) {
		return 0, fmt.Errorf("bitcode: %s index %d out of range", what, i)
	}
	return int(i), nil
}

// width reads a type width or length in [min, MaxInt32].
func (d *decoder) width(what string, min uint64) (int, error) {
	w, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if w < min || w > math.MaxInt32 {
		return 0, fmt.Errorf("bitcode: invalid %s %d", what, w)
	}
	return int(w), nil
}

func (d *decoder) str() (string, error) {
	n, err := d.count()
	if err != nil {
		return "", err
	}
	return string(d.buf.Next(n)), nil
}

func (d *decoder) strRef() (string, error) {
	i, err := d.index("string", len(d.strings))
	if err != nil {
		return "", err
	}
	return d.strings[i], nil
}

func (d *decoder) typeRef() (*ir.Type, error) {
	i, err := d.index("type", len(d.types))
	if err != nil {
		return nil, err
	}
	return d.types[i], nil
}

// typeRefs reads a counted list of type references.
func (d *decoder) typeRefs() ([]*ir.Type, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	types := make([]*ir.Type, n)
	for i := range types {
		if types[i], err = d.typeRef(); err != nil {
			return nil, err
		}
	}
	return types, nil
}

func (d *decoder) typeDef() (*ir.Type, error) {
	kindByte, err := d.buf.ReadByte()
	if err != nil {
		return nil, err
	}
	kind := ir.TypeKind(kindByte)
	switch kind {
	case ir.VoidKind:
		return ir.VoidType(), nil
	case ir.TimeKind:
		return ir.TimeType(), nil
	case ir.IntKind, ir.EnumKind, ir.LogicKind:
		w, err := d.width("type width", 1)
		if err != nil {
			return nil, err
		}
		switch kind {
		case ir.IntKind:
			return ir.IntType(w), nil
		case ir.EnumKind:
			return ir.EnumType(w), nil
		default:
			return ir.LogicType(w), nil
		}
	case ir.PointerKind, ir.SignalKind:
		elem, err := d.typeRef()
		if err != nil {
			return nil, err
		}
		if kind == ir.PointerKind {
			return ir.PointerType(elem), nil
		}
		return ir.SignalType(elem), nil
	case ir.ArrayKind:
		n, err := d.width("array length", 0)
		if err != nil {
			return nil, err
		}
		elem, err := d.typeRef()
		if err != nil {
			return nil, err
		}
		return ir.ArrayType(n, elem), nil
	case ir.StructKind:
		fields, err := d.typeRefs()
		if err != nil {
			return nil, err
		}
		return ir.StructType(fields...), nil
	case ir.FuncKind:
		ret, err := d.typeRef()
		if err != nil {
			return nil, err
		}
		params, err := d.typeRefs()
		if err != nil {
			return nil, err
		}
		return ir.FuncType(ret, params...), nil
	}
	return nil, fmt.Errorf("bitcode: unknown type kind %d", kind)
}

// instRefs are the operand references of one instruction, resolved once
// every value and block of its unit exists.
type instRefs struct {
	in      *ir.Inst
	args    []uint64
	dests   []uint64
	timeArg *uint64 // nil: none
	delay   *uint64
	trigs   []trigRefs
}

type trigRefs struct {
	mode           ir.RegMode
	value, trigger uint64
	gate           *uint64 // nil: ungated
}

// args reads a counted list of named, typed unit arguments.
func (d *decoder) args(add func(name string, ty *ir.Type) *ir.Arg, values []ir.Value) ([]ir.Value, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		an, err := d.strRef()
		if err != nil {
			return nil, err
		}
		at, err := d.typeRef()
		if err != nil {
			return nil, err
		}
		values = append(values, add(an, at))
	}
	return values, nil
}

func (d *decoder) unit() (*ir.Unit, error) {
	kindByte, err := d.buf.ReadByte()
	if err != nil {
		return nil, err
	}
	name, err := d.strRef()
	if err != nil {
		return nil, err
	}
	u := &ir.Unit{Kind: ir.UnitKind(kindByte), Name: name, RetType: ir.VoidType()}

	values, err := d.args(u.AddInput, nil)
	if err != nil {
		return nil, err
	}
	if values, err = d.args(u.AddOutput, values); err != nil {
		return nil, err
	}
	if u.RetType, err = d.typeRef(); err != nil {
		return nil, err
	}

	// First pass: read the blocks and their instruction payloads; a
	// reference may name a value or block that comes later.
	nblocks, err := d.count()
	if err != nil {
		return nil, err
	}
	var pending []instRefs
	for bi := 0; bi < nblocks; bi++ {
		bn, err := d.strRef()
		if err != nil {
			return nil, err
		}
		b := u.AddBlock(bn)
		n, err := d.count()
		if err != nil {
			return nil, err
		}
		for ii := 0; ii < n; ii++ {
			refs, err := d.inst()
			if err != nil {
				return nil, err
			}
			b.Append(refs.in)
			values = append(values, refs.in)
			pending = append(pending, refs)
		}
	}

	// Second pass: resolve value and block references.
	value := func(r uint64) (ir.Value, error) {
		if r >= uint64(len(values)) {
			return nil, fmt.Errorf("bitcode: value ref %d out of range", r)
		}
		return values[r], nil
	}
	for _, p := range pending {
		in := p.in
		for _, r := range p.args {
			v, err := value(r)
			if err != nil {
				return nil, err
			}
			in.Args = append(in.Args, v)
		}
		for _, r := range p.dests {
			if r >= uint64(len(u.Blocks)) {
				return nil, fmt.Errorf("bitcode: block ref %d out of range", r)
			}
			in.Dests = append(in.Dests, u.Blocks[r])
		}
		if p.timeArg != nil {
			if in.TimeArg, err = value(*p.timeArg); err != nil {
				return nil, err
			}
		}
		if p.delay != nil {
			if in.Delay, err = value(*p.delay); err != nil {
				return nil, err
			}
		}
		for _, tr := range p.trigs {
			t := ir.RegTrigger{Mode: tr.mode}
			if t.Value, err = value(tr.value); err != nil {
				return nil, err
			}
			if t.Trigger, err = value(tr.trigger); err != nil {
				return nil, err
			}
			if tr.gate != nil {
				if t.Gate, err = value(*tr.gate); err != nil {
					return nil, err
				}
			}
			in.Triggers = append(in.Triggers, t)
		}
	}
	return u, nil
}

// refs reads a counted list of references, left unresolved.
func (d *decoder) refs() ([]uint64, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	out := make([]uint64, n)
	for i := range out {
		if out[i], err = d.uvarint(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// optRef reads a presence byte and, when it is set, a reference.
func (d *decoder) optRef() (*uint64, error) {
	has, err := d.buf.ReadByte()
	if err != nil || has != 1 {
		return nil, err
	}
	r, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	return &r, nil
}

// inst reads one instruction payload, deferring reference resolution.
func (d *decoder) inst() (refs instRefs, err error) {
	opByte, err := d.buf.ReadByte()
	if err != nil {
		return refs, err
	}
	in := &ir.Inst{Op: ir.Opcode(opByte)}
	refs.in = in
	if in.Ty, err = d.typeRef(); err != nil {
		return refs, err
	}
	name, err := d.strRef()
	if err != nil {
		return refs, err
	}
	in.SetName(name)
	if in.IVal, err = d.uvarint(); err != nil {
		return refs, err
	}
	fs, err := d.uvarint()
	if err != nil {
		return refs, err
	}
	delta, err := d.uvarint()
	if err != nil {
		return refs, err
	}
	eps, err := d.uvarint()
	if err != nil {
		return refs, err
	}
	in.TVal = ir.Time{Fs: int64(fs), Delta: int(delta), Eps: int(eps)}
	imm0, err := d.uvarint()
	if err != nil {
		return refs, err
	}
	imm1, err := d.uvarint()
	if err != nil {
		return refs, err
	}
	in.Imm0, in.Imm1 = int(int64(imm0)), int(int64(imm1))
	if in.Callee, err = d.strRef(); err != nil {
		return refs, err
	}
	numIns, err := d.uvarint()
	if err != nil {
		return refs, err
	}
	in.NumIns = int(numIns)
	nlogic, err := d.count()
	if err != nil {
		return refs, err
	}
	if nlogic > 0 {
		in.LVal = make(logic.Vector, nlogic)
		for i, lb := range d.buf.Next(nlogic) {
			in.LVal[i] = logic.Value(lb)
		}
	}

	if refs.args, err = d.refs(); err != nil {
		return refs, err
	}
	if refs.dests, err = d.refs(); err != nil {
		return refs, err
	}
	if refs.timeArg, err = d.optRef(); err != nil {
		return refs, err
	}
	if refs.delay, err = d.optRef(); err != nil {
		return refs, err
	}
	ntrig, err := d.count()
	if err != nil {
		return refs, err
	}
	for i := 0; i < ntrig; i++ {
		modeByte, err := d.buf.ReadByte()
		if err != nil {
			return refs, err
		}
		tr := trigRefs{mode: ir.RegMode(modeByte)}
		if tr.value, err = d.uvarint(); err != nil {
			return refs, err
		}
		if tr.trigger, err = d.uvarint(); err != nil {
			return refs, err
		}
		if tr.gate, err = d.optRef(); err != nil {
			return refs, err
		}
		refs.trigs = append(refs.trigs, tr)
	}
	return refs, nil
}
