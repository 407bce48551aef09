package svsim

import (
	"fmt"
	"strings"

	"llhd/internal/moore"
)

// checkNames reports the first name under n (a process body, a function)
// that resolves to nothing: an identifier that is no local, constant, net
// or array of the instance, a call of an undeclared function, a wait on
// an event that is no net. It also holds $signed, $unsigned and $clog2 to
// their one argument. The interpreter looks names up as it runs;
// checking them when the process is built makes a misspelt name an input
// error with a plain diagnostic instead of a runtime failure at time zero.
//
// locals holds the names already declared (function arguments) and
// collects the body's own declarations flat, the way the interpreter
// keeps them: a name stays known after the block that declared it.
// Arguments of $display and friends are not looked at, as they are never
// evaluated. When waits is not nil, every @(...) under n is kept there
// resolved, for waitEvents.
func (sc *scope) checkNames(locals map[string]bool, waits map[*moore.WaitEventStmt]*eventList, n moore.Node) (err error) {
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
			var l *eventList
			if l, err = sc.resolveEvents("event", x.Events); err == nil && waits != nil {
				waits[x] = l
			}
			return false
		case *moore.SysCallStmt:
			return x.Name == "$return"
		case *moore.Ident:
			_, isConst := sc.consts[x.Name]
			_, isNet := sc.nets[x.Name]
			_, isArray := sc.arrays[x.Name]
			if !locals[x.Name] && !isConst && !isNet && !isArray {
				err = fmt.Errorf("unknown identifier %q", x.Name)
			}
		case *moore.CallExpr:
			switch x.Name {
			case "$display", "$write", "$info", "$warning":
				return false
			case "$signed", "$unsigned", "$clog2":
				if len(x.Args) != 1 {
					err = fmt.Errorf("%s takes one argument", x.Name)
				}
			}
			if _, ok := sc.funcs[x.Name]; !ok && !strings.HasPrefix(x.Name, "$") {
				err = fmt.Errorf("unknown function %q", x.Name)
			}
		}
		return err == nil
	})
	return err
}

// suspends reports whether n holds a statement that hands control back to
// the kernel in the middle of a pass: a # delay or an @(...) wait.
func suspends(n moore.Node) (found bool) {
	moore.Inspect(n, func(n moore.Node) bool {
		switch n.(type) {
		case *moore.DelayStmt, *moore.WaitEventStmt:
			found = true
		}
		return !found
	})
	return found
}
