package svsim

import (
	"fmt"
	"strings"

	"llhd/internal/moore"
)

// checkNames reports the first name under n (a process body, a function)
// that resolves to nothing: an identifier that is no local, constant, net
// or array of the instance, a call of an undeclared function, a wait on
// an event that is no net. The interpreter looks names up as it runs;
// checking them when the process is built makes a misspelt name an input
// error with a plain diagnostic instead of a runtime failure at time zero.
//
// locals holds the names already declared (function arguments) and
// collects the body's own declarations flat, the way the interpreter
// keeps them: a name stays known after the block that declared it.
// Arguments of $display and friends are not looked at, as they are never
// evaluated.
func (sc *scope) checkNames(locals map[string]bool, n moore.Node) (err error) {
	moore.Inspect(n, func(n moore.Node) bool {
		if err != nil {
			return false // the first failure is the one reported
		}
		switch x := n.(type) {
		case *moore.NetDecl:
			for _, name := range x.Names {
				locals[name] = true
			}
		case *moore.WaitEventStmt:
			_, err = sc.resolveEvents("event", x.Events)
			return false
		case *moore.SysCallStmt:
			return x.Name == "$return"
		case *moore.Ident:
			_, isConst := sc.consts[x.Name]
			_, isNet := sc.widths[x.Name] // nets and arrays
			if !locals[x.Name] && !isConst && !isNet {
				err = fmt.Errorf("unknown identifier %q", x.Name)
			}
		case *moore.CallExpr:
			switch x.Name {
			case "$display", "$write", "$info", "$warning":
				return false
			}
			if _, ok := sc.funcs[x.Name]; !ok && !strings.HasPrefix(x.Name, "$") {
				err = fmt.Errorf("unknown function %q", x.Name)
			}
		}
		return err == nil
	})
	return err
}
