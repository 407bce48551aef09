package svsim

import (
	"fmt"
	"strings"

	"llhd/internal/moore"
)

// checkNames reports the first name in the statement that resolves to
// nothing: an identifier that is no local, constant, net or array of the
// instance, a call of an undeclared function, a wait on an event that is
// no net. The interpreter looks names up as it runs; checking them when
// the process is built makes a misspelt name an input error with a plain
// diagnostic instead of a runtime failure at time zero.
//
// locals holds the names already declared (function arguments) and
// collects the body's own declarations flat, the way the interpreter
// keeps them: a name stays known after the block that declared it.
// Arguments of $display and friends are not looked at, as they are never
// evaluated.
func (sc *scope) checkNames(locals map[string]bool, body moore.Stmt) error {
	c := nameCheck{sc: sc, locals: locals}
	c.stmt(body)
	return c.err
}

type nameCheck struct {
	sc     *scope
	locals map[string]bool
	err    error // the first failure
}

func (c *nameCheck) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *nameCheck) stmt(s moore.Stmt) {
	switch st := s.(type) {
	case *moore.BlockStmt:
		for _, d := range st.Decls {
			for i, n := range d.Names {
				c.expr(d.Inits[i])
				c.locals[n] = true
			}
		}
		for _, x := range st.Stmts {
			c.stmt(x)
		}
	case *moore.AssignStmt:
		c.expr(st.Target, st.Value, st.Delay)
	case *moore.IfStmt:
		c.expr(st.Cond)
		c.stmt(st.Then)
		c.stmt(st.Else)
	case *moore.CaseStmt:
		c.expr(st.Subject)
		for _, item := range st.Items {
			c.expr(item.Labels...)
			c.stmt(item.Body)
		}
		c.stmt(st.Default)
	case *moore.ForStmt:
		c.stmt(st.Init)
		c.expr(st.Cond)
		c.stmt(st.Step)
		c.stmt(st.Body)
	case *moore.WhileStmt:
		c.expr(st.Cond)
		c.stmt(st.Body)
	case *moore.RepeatStmt:
		c.expr(st.Count)
		c.stmt(st.Body)
	case *moore.DelayStmt:
		c.expr(st.Delay)
		c.stmt(st.Inner)
	case *moore.WaitEventStmt:
		if _, err := c.sc.resolveEvents("event", st.Events); err != nil {
			c.fail(err)
		}
	case *moore.ExprStmt:
		c.expr(st.X)
	case *moore.AssertStmt:
		c.expr(st.Cond)
	case *moore.SysCallStmt:
		if st.Name == "$return" {
			c.expr(st.Args...)
		}
	}
}

func (c *nameCheck) expr(es ...moore.Expr) {
	for _, e := range es {
		switch x := e.(type) {
		case *moore.Ident:
			_, isConst := c.sc.consts[x.Name]
			_, isNet := c.sc.widths[x.Name] // nets and arrays
			if !c.locals[x.Name] && !isConst && !isNet {
				c.fail(fmt.Errorf("unknown identifier %q", x.Name))
			}
		case *moore.Unary:
			c.expr(x.X)
		case *moore.Binary:
			c.expr(x.X, x.Y)
		case *moore.Ternary:
			c.expr(x.Cond, x.Then, x.Else)
		case *moore.Index:
			c.expr(x.X, x.Idx)
		case *moore.Slice:
			c.expr(x.X, x.Msb, x.Lsb)
		case *moore.Concat:
			c.expr(x.Parts...)
		case *moore.Repl:
			c.expr(x.Count, x.X)
		case *moore.IncDec:
			c.expr(x.X)
		case *moore.CallExpr:
			switch x.Name {
			case "$display", "$write", "$info", "$warning":
				continue
			}
			if _, ok := c.sc.funcs[x.Name]; !ok && !strings.HasPrefix(x.Name, "$") {
				c.fail(fmt.Errorf("unknown function %q", x.Name))
			}
			c.expr(x.Args...)
		}
	}
}
