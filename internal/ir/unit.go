package ir

import "fmt"

// UnitKind distinguishes the three LLHD design units (§2.4, Table 1).
type UnitKind uint8

const (
	// UnitFunc is a function: control flow, immediate timing.
	UnitFunc UnitKind = iota
	// UnitProc is a process: control flow, timed.
	UnitProc
	// UnitEntity is an entity: data flow, timed.
	UnitEntity
)

var unitKindNames = [...]string{"func", "proc", "entity"}

// String returns the assembly keyword of the kind.
func (k UnitKind) String() string {
	if int(k) < len(unitKindNames) {
		return unitKindNames[k]
	}
	return fmt.Sprintf("unit(%d)", int(k))
}

// Unit is an LLHD design unit: a function, process, or entity. Processes
// and entities have signal-typed inputs and outputs; functions have
// by-value inputs and a return type.
type Unit struct {
	Kind    UnitKind
	Name    string // global name, without the @ sigil
	Inputs  []*Arg
	Outputs []*Arg // empty for functions
	RetType *Type  // functions only; VoidType() if no return value

	Blocks []*Block // entities have exactly one implicit block

	mod       *Module
	numbering *Numbering // cached dense value numbering, see Numbering()
	frozen    bool       // sealed by Module.Freeze; mutation panics
}

// NewUnit creates a detached unit of the given kind and name.
func NewUnit(kind UnitKind, name string) *Unit {
	u := &Unit{Kind: kind, Name: name, RetType: VoidType()}
	if kind == UnitEntity {
		// Entities carry their DFG in a single implicit block.
		u.AddBlock("body")
	}
	return u
}

// Module returns the module the unit belongs to, or nil.
func (u *Unit) Module() *Module { return u.mod }

// Type returns the function signature for use as a call target.
func (u *Unit) Type() *Type {
	params := make([]*Type, len(u.Inputs))
	for i, a := range u.Inputs {
		params[i] = a.ty
	}
	return FuncType(u.RetType, params...)
}

// ValueName returns the unit's global name.
func (u *Unit) ValueName() string { return u.Name }

func (u *Unit) String() string { return "@" + u.Name }

// AddInput appends an input argument of the given name and type.
func (u *Unit) AddInput(name string, ty *Type) *Arg {
	a := &Arg{name: name, ty: ty, Index: len(u.Inputs), unit: u}
	u.Inputs = append(u.Inputs, a)
	u.invalidateNumbering()
	return a
}

// AddOutput appends an output argument of the given name and type.
func (u *Unit) AddOutput(name string, ty *Type) *Arg {
	a := &Arg{name: name, ty: ty, Index: len(u.Outputs), Output: true, unit: u}
	u.Outputs = append(u.Outputs, a)
	u.invalidateNumbering()
	return a
}

// AddBlock appends a new basic block with the given label hint.
func (u *Unit) AddBlock(name string) *Block {
	b := &Block{name: name, unit: u}
	u.Blocks = append(u.Blocks, b)
	u.invalidateNumbering()
	return b
}

// InsertBlockAfter inserts a new block immediately after pos.
func (u *Unit) InsertBlockAfter(name string, pos *Block) *Block {
	b := &Block{name: name, unit: u}
	u.invalidateNumbering()
	for i, blk := range u.Blocks {
		if blk == pos {
			u.Blocks = append(u.Blocks, nil)
			copy(u.Blocks[i+2:], u.Blocks[i+1:])
			u.Blocks[i+1] = b
			return b
		}
	}
	u.Blocks = append(u.Blocks, b)
	return b
}

// RemoveBlock removes b from the unit. The caller must have rewritten all
// branches to b.
func (u *Unit) RemoveBlock(b *Block) {
	for i, blk := range u.Blocks {
		if blk == b {
			u.Blocks = append(u.Blocks[:i], u.Blocks[i+1:]...)
			b.unit = nil
			u.invalidateNumbering()
			return
		}
	}
}

// Entry returns the entry block, or nil for an empty unit.
func (u *Unit) Entry() *Block {
	if len(u.Blocks) == 0 {
		return nil
	}
	return u.Blocks[0]
}

// Body returns the single implicit block of an entity.
func (u *Unit) Body() *Block {
	if u.Kind != UnitEntity {
		panic("ir: Body on non-entity " + u.Name)
	}
	return u.Blocks[0]
}

// NumInsts returns the total instruction count across all blocks.
func (u *Unit) NumInsts() int {
	n := 0
	for _, b := range u.Blocks {
		n += len(b.Insts)
	}
	return n
}

// ForEachInst calls fn on every instruction in block order.
func (u *Unit) ForEachInst(fn func(*Block, *Inst)) {
	for _, b := range u.Blocks {
		for _, in := range b.Insts {
			fn(b, in)
		}
	}
}

// Uses computes the use-def index of the unit: for every value, the list of
// instructions that use it as an operand. The index is a snapshot; passes
// that mutate the unit must recompute it.
func (u *Unit) Uses() map[Value][]*Inst {
	uses := make(map[Value][]*Inst)
	u.ForEachInst(func(_ *Block, in *Inst) {
		in.Operands(func(v Value) {
			// One instruction's operands are visited back to back, so a
			// repeated operand shows as the tail of its list.
			l := uses[v]
			if len(l) == 0 || l[len(l)-1] != in {
				uses[v] = append(l, in)
			}
		})
	})
	return uses
}

// ReplaceAllUses rewrites every use of old to new across the unit and
// returns the number of operands rewritten.
func (u *Unit) ReplaceAllUses(old, new Value) int {
	n := 0
	u.ForEachInst(func(_ *Block, in *Inst) {
		n += in.ReplaceOperand(old, new)
	})
	return n
}

// Preds returns the predecessor map of the unit's CFG.
func (u *Unit) Preds() map[*Block][]*Block {
	preds := make(map[*Block][]*Block, len(u.Blocks))
	for _, b := range u.Blocks {
		preds[b] = nil
	}
	for _, b := range u.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b)
		}
	}
	return preds
}

// Module is a single LLHD translation unit: a named collection of
// functions, processes, and entities (§2.3).
type Module struct {
	Name  string
	Units []*Unit

	byName map[string]*Unit
	frozen bool // sealed by Freeze; Add/Remove/Link panic
}

// NewModule creates an empty module.
func NewModule(name string) *Module {
	return &Module{Name: name, byName: map[string]*Unit{}}
}

// Add appends the unit to the module. It returns an error if the global
// name is already taken.
func (m *Module) Add(u *Unit) error {
	if m.frozen {
		panic("ir: Add on frozen module " + m.Name)
	}
	if m.byName == nil {
		m.byName = map[string]*Unit{}
	}
	if _, dup := m.byName[u.Name]; dup {
		return fmt.Errorf("ir: duplicate global name @%s", u.Name)
	}
	u.mod = m
	m.Units = append(m.Units, u)
	m.byName[u.Name] = u
	return nil
}

// MustAdd is Add but panics on duplicates; for use in builders and tests.
func (m *Module) MustAdd(u *Unit) *Unit {
	if err := m.Add(u); err != nil {
		panic(err)
	}
	return u
}

// Unit looks up a unit by global name (without the @ sigil).
func (m *Module) Unit(name string) *Unit {
	if m.byName == nil {
		return nil
	}
	return m.byName[name]
}

// DefaultTop returns the name of the module's last entity, the unit every
// tool elaborates when no top is named, or "" if the module has none.
func (m *Module) DefaultTop() string {
	for i := len(m.Units) - 1; i >= 0; i-- {
		if m.Units[i].Kind == UnitEntity {
			return m.Units[i].Name
		}
	}
	return ""
}

// Remove deletes the unit from the module.
func (m *Module) Remove(u *Unit) {
	if m.frozen {
		panic("ir: Remove on frozen module " + m.Name)
	}
	for i, have := range m.Units {
		if have == u {
			m.Units = append(m.Units[:i], m.Units[i+1:]...)
			delete(m.byName, u.Name)
			u.mod = nil
			return
		}
	}
}

// Link merges the units of other into m, resolving references by global
// name (§2.3). Duplicate definitions are an error.
func (m *Module) Link(other *Module) error {
	if other.frozen {
		panic("ir: Link from frozen module " + other.Name)
	}
	for _, u := range other.Units {
		if err := m.Add(u); err != nil {
			return err
		}
	}
	other.Units = nil
	other.byName = map[string]*Unit{}
	return nil
}

// MemFootprint estimates the in-memory size of the module in bytes, for
// the Table 4 "In-Mem." column. The estimate counts the IR node structs
// and their slices, mirroring what a C++ implementation would allocate.
func (m *Module) MemFootprint() int {
	const (
		ptrSize   = 8
		instSize  = 160 // sizeof(Inst) rounded
		blockSize = 48
		unitSize  = 120
		argSize   = 48
	)
	total := 64 // module header
	for _, u := range m.Units {
		total += unitSize + len(u.Name)
		total += (len(u.Inputs) + len(u.Outputs)) * (argSize + ptrSize)
		for _, a := range u.Inputs {
			total += len(a.name)
		}
		for _, a := range u.Outputs {
			total += len(a.name)
		}
		for _, b := range u.Blocks {
			total += blockSize + len(b.name) + len(b.Insts)*ptrSize
			for _, in := range b.Insts {
				total += instSize + len(in.name) + len(in.Callee)
				total += len(in.Args) * ptrSize
				total += len(in.Dests) * ptrSize
				total += len(in.Triggers) * 4 * ptrSize
			}
		}
	}
	return total
}
