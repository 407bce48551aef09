package moore

import (
	"go/ast"
	"go/parser"
	gotoken "go/token"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// astTypes lists every struct ast.go declares. The ones that are an Item,
// a Stmt or an Expr (and SourceFile, Module) are nodes; the rest carry
// expressions for the node that holds them.
var astTypes = []any{
	SourceFile{}, Module{}, Param{}, Port{}, DataType{},
	NetDecl{}, LocalParam{}, AssignItem{}, AlwaysBlock{}, Event{}, FuncDecl{}, InstItem{}, Connection{},
	BlockStmt{}, AssignStmt{}, IfStmt{}, CaseStmt{}, CaseItem{}, ForStmt{}, WhileStmt{}, RepeatStmt{},
	DelayStmt{}, WaitEventStmt{}, ExprStmt{}, AssertStmt{}, SysCallStmt{}, NullStmt{},
	Ident{}, Number{}, TimeLit{}, StringLit{}, Unary{}, Binary{}, Ternary{}, Index{}, Slice{},
	Concat{}, Repl{}, ArrayLit{}, CallExpr{}, IncDec{},
}

var (
	itemType = reflect.TypeOf((*Item)(nil)).Elem()
	stmtType = reflect.TypeOf((*Stmt)(nil)).Elem()
	exprType = reflect.TypeOf((*Expr)(nil)).Elem()
)

// filler builds AST values in which every field that can hold a child
// holds one: a fresh sentinel leaf for each Item, Stmt and Expr (two per
// slice), a recursively filled value for each struct and struct pointer.
type filler struct {
	bools     bool                  // the value every bool field takes
	sentinels map[any]string        // sentinel -> path of the field holding it
	filled    map[reflect.Type]bool // struct types built so far
}

func (f *filler) sentinel(path string, s any) reflect.Value {
	f.sentinels[s] = path
	return reflect.ValueOf(s)
}

func (f *filler) value(t reflect.Type, path string) reflect.Value {
	switch {
	case t == itemType:
		return f.sentinel(path, &LocalParam{Name: path})
	case t == stmtType:
		return f.sentinel(path, &SysCallStmt{Name: path}) // not NullStmt: zero-size values share an address
	case t == exprType:
		return f.sentinel(path, &Ident{Name: path})
	}
	switch t.Kind() {
	case reflect.Struct:
		f.filled[t] = true
		v := reflect.New(t).Elem()
		for i := 0; i < t.NumField(); i++ {
			v.Field(i).Set(f.value(t.Field(i).Type, path+"."+t.Field(i).Name))
		}
		return v
	case reflect.Pointer:
		p := reflect.New(t.Elem())
		p.Elem().Set(f.value(t.Elem(), path))
		return p
	case reflect.Slice:
		s := reflect.MakeSlice(t, 2, 2)
		s.Index(0).Set(f.value(t.Elem(), path+"[0]"))
		s.Index(1).Set(f.value(t.Elem(), path+"[1]"))
		return s
	case reflect.Bool:
		return reflect.ValueOf(f.bools)
	}
	return reflect.Zero(t) // names, operators, line numbers: no children
}

// TestInspectVisitsEveryChild fills every field of every node that can
// hold a child and requires Inspect to reach each of them, so a field
// added to ast.go and not to Inspect fails here (as does a struct added
// to ast.go and not to astTypes).
func TestInspectVisitsEveryChild(t *testing.T) {
	file, err := parser.ParseFile(gotoken.NewFileSet(), "ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var declared, listed []string
	ast.Inspect(file, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok {
			if _, isStruct := ts.Type.(*ast.StructType); isStruct {
				declared = append(declared, ts.Name.Name)
			}
		}
		return true
	})
	for _, x := range astTypes {
		listed = append(listed, reflect.TypeOf(x).Name())
	}
	slices.Sort(declared)
	slices.Sort(listed)
	if !slices.Equal(declared, listed) {
		t.Fatalf("astTypes is out of step with ast.go:\n declared %v\n listed   %v", declared, listed)
	}

	filled := map[reflect.Type]bool{}
	for _, bools := range []bool{false, true} {
		for _, x := range astTypes {
			typ := reflect.TypeOf(x)
			ptr := reflect.PointerTo(typ)
			isNode := ptr.Implements(itemType) || ptr.Implements(stmtType) || ptr.Implements(exprType) ||
				typ == reflect.TypeOf(SourceFile{}) || typ == reflect.TypeOf(Module{})
			if !isNode {
				continue
			}
			f := &filler{bools: bools, sentinels: map[any]string{}, filled: filled}
			root := f.value(ptr, typ.Name())
			Inspect(root.Interface(), func(n Node) bool {
				delete(f.sentinels, n)
				return true
			})
			for _, path := range f.sentinels {
				t.Errorf("Inspect does not reach %s (bool fields %v)", path, bools)
			}
		}
	}
	for _, x := range astTypes {
		if !filled[reflect.TypeOf(x)] {
			t.Errorf("%T is held by no node: nothing checks that Inspect reaches its children", x)
		}
	}
}

// TestInspectOrderAndPruning pins pre-order, source order, and that
// returning false skips a node's children and nothing else.
func TestInspectOrderAndPruning(t *testing.T) {
	file, err := ParseFile(`module m;
  initial begin
    if (a) {b, c[d]} <= #1ns e + f; else $display("%d", g);
    do h = i; while (j);
    @(posedge k or l);
  end
endmodule`)
	if err != nil {
		t.Fatal(err)
	}
	idents := func(prune func(Node) bool) string {
		var names []string
		Inspect(file, func(n Node) bool {
			if id, ok := n.(*Ident); ok {
				names = append(names, id.Name)
			}
			return !prune(n)
		})
		return strings.Join(names, " ")
	}
	if got, want := idents(func(Node) bool { return false }), "a b c d e f g h i j k l"; got != want {
		t.Errorf("Inspect order: %q, want %q", got, want)
	}
	noDisplay := func(n Node) bool { s, ok := n.(*SysCallStmt); return ok && s.Name == "$display" }
	if got, want := idents(noDisplay), "a b c d e f h i j k l"; got != want {
		t.Errorf("Inspect with $display pruned: %q, want %q", got, want)
	}
}

func TestLvalueNets(t *testing.T) {
	id := func(n string) Expr { return &Ident{Name: n} }
	for _, tc := range []struct {
		name   string
		target Expr
		want   []string
	}{
		{"ident", id("a"), []string{"a"}},
		{"index", &Index{X: id("a"), Idx: id("i")}, []string{"a"}},
		{"slice", &Slice{X: id("a"), Msb: id("m"), Lsb: id("l")}, []string{"a"}},
		{"indexed part select", &Slice{X: id("a"), Msb: id("i"), Lsb: &Number{Value: 4}, Up: true}, []string{"a"}},
		{"concat", &Concat{Parts: []Expr{id("a"), &Index{X: id("b"), Idx: id("i")}}}, []string{"a", "b"}},
		{"nested concat", &Concat{Parts: []Expr{id("a"), &Concat{Parts: []Expr{id("b"), &Slice{X: id("c")}}}, id("a")}},
			[]string{"a", "b", "c", "a"}},
		{"bit of an array element", &Index{X: &Index{X: id("mem"), Idx: id("i")}, Idx: id("j")}, []string{"mem"}},
		{"number", &Number{Value: 1}, nil},
		{"call", &CallExpr{Name: "f", Args: []Expr{id("a")}}, nil},
		{"binary", &Binary{Op: "+", X: id("a"), Y: id("b")}, nil},
		{"index of a call", &Index{X: &CallExpr{Name: "f"}, Idx: id("i")}, nil},
		{"concat with a non-lvalue part", &Concat{Parts: []Expr{id("a"), &Number{Value: 0}}}, []string{"a"}},
		{"nil", nil, nil},
	} {
		if got := LvalueNets(tc.target); !slices.Equal(got, tc.want) {
			t.Errorf("%s: LvalueNets = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestEdgeTriggered(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want bool
	}{
		{"always_ff @(posedge clk) q <= d;", true},
		{"always_ff @(posedge clk or negedge rst_n) q <= d;", true},
		{"always @(negedge clk) q <= d;", true},
		{"always @(a or posedge clk) q <= d;", true},
		{"always @(a or b) q = a & b;", false},
		{"always @(*) q = a & b;", false},
		{"always_comb q = a & b;", false},
		{"always_latch if (en) q = d;", false},
		{"initial @(posedge clk) q <= d;", false},
	} {
		file, err := ParseFile("module m;\n" + tc.src + "\nendmodule")
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if got := file.Modules[0].Items[0].(*AlwaysBlock).EdgeTriggered(); got != tc.want {
			t.Errorf("%s: EdgeTriggered = %v, want %v", tc.src, got, tc.want)
		}
	}
}
