package moore

// AST for the supported SystemVerilog subset, and the one traversal of it:
// Inspect, LvalueNets and EdgeTriggered are the only code that spells out
// the shape of a node; the Moore code generator and SVSim state what they
// do at a node, never which children it has.

// SourceFile is a parsed compilation unit.
type SourceFile struct {
	Modules []*Module
}

// Module is a module declaration.
type Module struct {
	Name   string
	Params []*Param
	Ports  []*Port
	Items  []Item
	Line   int
}

// Param is a module parameter with a default expression.
type Param struct {
	Name    string
	Default Expr
}

// Port is an ANSI-style port declaration.
type Port struct {
	Name string
	Dir  string // "input" or "output"
	Type *DataType
	Line int
}

// DataType describes a (possibly packed-vector, possibly unpacked-array)
// declaration type.
type DataType struct {
	Keyword string // bit, logic, wire, reg, int, integer
	// Packed range [Msb:Lsb]; nil expressions mean scalar.
	Msb, Lsb Expr
	// Unpacked dimension [Lo:Hi] for arrays; nil if none.
	UnpackedLo, UnpackedHi Expr
	Signed                 bool
}

// Item is a module-body item.
type Item interface{ item() }

// NetDecl declares module-level nets/variables.
type NetDecl struct {
	Type  *DataType
	Names []string
	Inits []Expr // parallel to Names; nil entries mean no initializer
	Line  int
}

// LocalParam is a localparam declaration.
type LocalParam struct {
	Name  string
	Value Expr
}

// AssignItem is a continuous assignment.
type AssignItem struct {
	Target Expr
	Value  Expr
	Line   int
}

// AlwaysBlock covers always_ff/always_comb/always/initial/final.
type AlwaysBlock struct {
	Kind   string // "always_ff", "always_comb", "always", "initial"
	Events []Event
	Body   Stmt
	Line   int
}

// Event is one sensitivity item: posedge/negedge/level of a signal.
type Event struct {
	Edge string // "posedge", "negedge", "" (level), "*" (comb)
	Sig  Expr
}

// FuncDecl is a function declaration.
type FuncDecl struct {
	Name   string
	Ret    *DataType // nil for void
	Args   []*Port   // direction "input"
	Body   []Stmt
	Locals []*NetDecl
	Line   int
}

// InstItem is a module instantiation.
type InstItem struct {
	ModName  string
	InstName string
	// Params are #(.N(v)) overrides; positional params use name "".
	Params []Connection
	Conns  []Connection
	Star   bool // .* shorthand connects by name
	Line   int
}

// Connection is one .port(expr) connection (Name empty for positional).
type Connection struct {
	Name string
	Expr Expr
}

func (*NetDecl) item()     {}
func (*LocalParam) item()  {}
func (*AssignItem) item()  {}
func (*AlwaysBlock) item() {}
func (*FuncDecl) item()    {}
func (*InstItem) item()    {}

// Stmt is a behavioural statement.
type Stmt interface{ stmt() }

// BlockStmt is begin ... end, possibly with local variable declarations.
type BlockStmt struct {
	Decls []*NetDecl
	Stmts []Stmt
}

// AssignStmt is a blocking (=) or nonblocking (<=) assignment with an
// optional intra-assignment delay.
type AssignStmt struct {
	Target   Expr
	Value    Expr
	Blocking bool
	Delay    Expr // time literal or nil
	Line     int
}

// IfStmt is if/else.
type IfStmt struct {
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// CaseStmt is case/endcase, lowered to an if-else chain.
type CaseStmt struct {
	Subject Expr
	Items   []CaseItem
	Default Stmt // may be nil
}

// CaseItem is one labeled arm.
type CaseItem struct {
	Labels []Expr
	Body   Stmt
}

// ForStmt is a for loop (runtime loop in LLHD).
type ForStmt struct {
	Init Stmt
	Cond Expr
	Step Stmt
	Body Stmt
}

// WhileStmt is while/do-while.
type WhileStmt struct {
	Cond    Expr
	Body    Stmt
	DoWhile bool
}

// RepeatStmt is repeat(n) body.
type RepeatStmt struct {
	Count Expr
	Body  Stmt
}

// DelayStmt is "#10ns;" or "#10ns stmt".
type DelayStmt struct {
	Delay Expr
	Inner Stmt // may be nil
}

// WaitEventStmt is "@(posedge clk);".
type WaitEventStmt struct {
	Events []Event
}

// ExprStmt is an expression in statement position (calls, i++).
type ExprStmt struct {
	X Expr
}

// AssertStmt is assert(expr) [else ...].
type AssertStmt struct {
	Cond Expr
	Line int
}

// SysCallStmt is $display(...), $finish, $error.
type SysCallStmt struct {
	Name string
	Args []Expr
}

// NullStmt is a bare semicolon.
type NullStmt struct{}

func (*BlockStmt) stmt()     {}
func (*AssignStmt) stmt()    {}
func (*IfStmt) stmt()        {}
func (*CaseStmt) stmt()      {}
func (*ForStmt) stmt()       {}
func (*WhileStmt) stmt()     {}
func (*RepeatStmt) stmt()    {}
func (*DelayStmt) stmt()     {}
func (*WaitEventStmt) stmt() {}
func (*ExprStmt) stmt()      {}
func (*AssertStmt) stmt()    {}
func (*SysCallStmt) stmt()   {}
func (*NullStmt) stmt()      {}

// Expr is an expression node.
type Expr interface{ expr() }

// Ident references a net, variable, parameter, or function.
type Ident struct {
	Name string
	Line int
}

// Number is an integer literal; Fill marks '0 / '1.
type Number struct {
	Value uint64
	Width int  // 0 = unsized (context-determined)
	Fill  bool // '0 or '1: replicate Value's LSB to the context width
}

// TimeLit is a time literal.
type TimeLit struct {
	Text string // e.g. "1ns"
}

// StringLit is a string literal (format strings, dropped at codegen).
type StringLit struct {
	Text string
}

// Unary is ~x, !x, -x, or a reduction (&x, |x, ^x).
type Unary struct {
	Op string
	X  Expr
}

// Binary is a binary operator.
type Binary struct {
	Op   string
	X, Y Expr
	Line int
}

// Ternary is c ? a : b.
type Ternary struct {
	Cond, Then, Else Expr
}

// Index is x[i] (bit select or array element).
type Index struct {
	X   Expr
	Idx Expr
}

// Slice is x[msb:lsb] (constant part select) or, with Up set, the
// indexed part select x[base +: width]: Msb holds the (possibly dynamic)
// base index and Lsb the constant width.
type Slice struct {
	X        Expr
	Msb, Lsb Expr
	Up       bool
}

// Concat is {a, b, c}.
type Concat struct {
	Parts []Expr
}

// Repl is {n{x}}.
type Repl struct {
	Count Expr
	X     Expr
}

// ArrayLit is '{a, b, c} for unpacked array initialization.
type ArrayLit struct {
	Elems []Expr
}

// CallExpr is f(args) or $signed(x)/$unsigned(x)/$time.
type CallExpr struct {
	Name string
	Args []Expr
	Line int
}

// IncDec is i++ / i-- / ++i / --i used in statement or condition position.
type IncDec struct {
	X    Expr
	Op   string // "++" or "--"
	Post bool
}

func (*Ident) expr()     {}
func (*Number) expr()    {}
func (*TimeLit) expr()   {}
func (*StringLit) expr() {}
func (*Unary) expr()     {}
func (*Binary) expr()    {}
func (*Ternary) expr()   {}
func (*Index) expr()     {}
func (*Slice) expr()     {}
func (*Concat) expr()    {}
func (*Repl) expr()      {}
func (*ArrayLit) expr()  {}
func (*CallExpr) expr()  {}
func (*IncDec) expr()    {}

// Node is anything Inspect visits: a *SourceFile, a *Module, an Item, a
// Stmt or an Expr. Param, Port, DataType, Event, CaseItem and Connection
// are not nodes; the expressions they hold are visited as children of the
// node that holds them.
type Node any

// Inspect walks the tree under n in pre-order and source order: it calls
// f(n), and if f returns true it inspects each child of n in turn. Absent
// children (a nil Else, a missing initializer) are skipped.
func Inspect(n Node, f func(Node) bool) {
	if n == nil || !f(n) {
		return
	}
	v := inspector(f)
	switch x := n.(type) {
	case *SourceFile:
		for _, m := range x.Modules {
			Inspect(m, f)
		}
	case *Module:
		for _, p := range x.Params {
			v.exprs(p.Default)
		}
		v.ports(x.Ports)
		for _, it := range x.Items {
			Inspect(it, f)
		}

	case *NetDecl:
		v.dataType(x.Type)
		v.exprs(x.Inits...)
	case *LocalParam:
		v.exprs(x.Value)
	case *AssignItem:
		v.exprs(x.Target, x.Value)
	case *AlwaysBlock:
		v.events(x.Events)
		Inspect(x.Body, f)
	case *FuncDecl:
		v.dataType(x.Ret)
		v.ports(x.Args)
		v.decls(x.Locals)
		v.stmts(x.Body...)
	case *InstItem:
		for _, c := range x.Params {
			v.exprs(c.Expr)
		}
		for _, c := range x.Conns {
			v.exprs(c.Expr)
		}

	case *BlockStmt:
		v.decls(x.Decls)
		v.stmts(x.Stmts...)
	case *AssignStmt:
		v.exprs(x.Target, x.Delay, x.Value)
	case *IfStmt:
		v.exprs(x.Cond)
		v.stmts(x.Then, x.Else)
	case *CaseStmt:
		v.exprs(x.Subject)
		for _, item := range x.Items {
			v.exprs(item.Labels...)
			v.stmts(item.Body)
		}
		v.stmts(x.Default)
	case *ForStmt:
		v.stmts(x.Init)
		v.exprs(x.Cond)
		v.stmts(x.Step, x.Body)
	case *WhileStmt:
		if x.DoWhile {
			v.stmts(x.Body)
			v.exprs(x.Cond)
		} else {
			v.exprs(x.Cond)
			v.stmts(x.Body)
		}
	case *RepeatStmt:
		v.exprs(x.Count)
		v.stmts(x.Body)
	case *DelayStmt:
		v.exprs(x.Delay)
		v.stmts(x.Inner)
	case *WaitEventStmt:
		v.events(x.Events)
	case *ExprStmt:
		v.exprs(x.X)
	case *AssertStmt:
		v.exprs(x.Cond)
	case *SysCallStmt:
		v.exprs(x.Args...)

	case *Unary:
		v.exprs(x.X)
	case *Binary:
		v.exprs(x.X, x.Y)
	case *Ternary:
		v.exprs(x.Cond, x.Then, x.Else)
	case *Index:
		v.exprs(x.X, x.Idx)
	case *Slice:
		v.exprs(x.X, x.Msb, x.Lsb)
	case *Concat:
		v.exprs(x.Parts...)
	case *Repl:
		v.exprs(x.Count, x.X)
	case *ArrayLit:
		v.exprs(x.Elems...)
	case *CallExpr:
		v.exprs(x.Args...)
	case *IncDec:
		v.exprs(x.X)
	}
}

// inspector walks the children that reach Inspect through a slice or
// through one of the structs that are not nodes themselves.
type inspector func(Node) bool

func (v inspector) exprs(es ...Expr) {
	for _, e := range es {
		Inspect(e, v)
	}
}

func (v inspector) stmts(ss ...Stmt) {
	for _, s := range ss {
		Inspect(s, v)
	}
}

func (v inspector) decls(ds []*NetDecl) {
	for _, d := range ds {
		Inspect(d, v)
	}
}

func (v inspector) events(evs []Event) {
	for _, ev := range evs {
		Inspect(ev.Sig, v)
	}
}

func (v inspector) ports(ps []*Port) {
	for _, p := range ps {
		v.dataType(p.Type)
	}
}

func (v inspector) dataType(dt *DataType) {
	if dt != nil {
		v.exprs(dt.Msb, dt.Lsb, dt.UnpackedLo, dt.UnpackedHi)
	}
}

// LvalueNets calls f with each name an assignment to target writes: the
// base of an Ident, Index or Slice target and, for a Concat, those of
// every part, in source order. Anything else is no lvalue and yields
// nothing.
func LvalueNets(target Expr, f func(name string)) {
	switch t := target.(type) {
	case *Ident:
		f(t.Name)
	case *Index:
		LvalueNets(t.X, f)
	case *Slice:
		LvalueNets(t.X, f)
	case *Concat:
		for _, p := range t.Parts {
			LvalueNets(p, f)
		}
	}
}

// EdgeTriggered reports whether the block waits for an edge of its own
// event list (always_ff, always @(posedge ...)) rather than for the nets
// it reads.
func (b *AlwaysBlock) EdgeTriggered() bool {
	if b.Kind != "always_ff" && b.Kind != "always" {
		return false
	}
	for _, ev := range b.Events {
		if ev.Edge == "posedge" || ev.Edge == "negedge" {
			return true
		}
	}
	return false
}
