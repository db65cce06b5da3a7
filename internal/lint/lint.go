// Package lint implements PacketBench's repo-specific Go checks — the
// invariants of this codebase that gofmt, go vet and staticcheck cannot
// know about. It is a plain go/ast pass (stdlib only, no external
// analysis framework) run by cmd/pblint and the CI lint job.
//
// Rules:
//
//   - telemetry-series: telemetry series must be registered via the
//     canonical name constants in internal/telemetry/names.go, never
//     via string literals. A literal name compiles fine and silently
//     splits the series from every reader that uses the constant.
//
//   - hotpath: functions on the per-packet hot path (ProcessPacket and
//     the threaded dispatch loop, plus anything whose doc comment
//     carries a "pblint:hotpath" directive) must not call time.Now or
//     friends, call fmt, allocate via make/new/append, create closures,
//     or defer — each is a per-packet (or per-instruction) cost that
//     the dispatch benchmarks' 0-alloc guardrail would catch only for
//     the paths they happen to exercise.
//
//   - span-pairing: a function that opens a packet-journey execution
//     span (ptrace's ExecBegin) must close it on every path: either
//     defer the ExecEnd, or place an ExecEnd between the begin and
//     every later return. An unclosed span leaves a permanent
//     in-flight marker in the flight recorder, and a post-mortem dump
//     would misreport the worker as wedged inside that packet.
//
// A finding can be waived by putting a "pblint:allow" comment on the
// same source line, ideally with a reason:
//
//	start = time.Now() //pblint:allow — packet-boundary timestamp
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Diagnostic is one finding, in the familiar file:line:col form.
type Diagnostic struct {
	Pos  token.Position
	Rule string // "telemetry-series", "hotpath" or "span-pairing"
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Msg, d.Rule)
}

// registerMethods are the telemetry.Registry constructors whose first
// argument is a series name.
var registerMethods = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true}

// hotPathFuncs are always treated as hot even without a directive: the
// public per-packet entry points and the engine dispatch loop.
var hotPathFuncs = map[string]bool{
	"ProcessPacket":   true,
	"ProcessPacketAt": true,
	"runFast":         true,
}

// CheckFile runs every rule over one parsed file and returns the
// findings in source order.
func CheckFile(fset *token.FileSet, file *ast.File) []Diagnostic {
	allowed := allowedLines(fset, file)
	var ds []Diagnostic
	emit := func(pos token.Pos, rule, msg string) {
		p := fset.Position(pos)
		if allowed[p.Line] {
			return
		}
		ds = append(ds, Diagnostic{Pos: p, Rule: rule, Msg: msg})
	}
	checkTelemetrySeries(file, emit)
	checkHotPaths(file, emit)
	checkSpanPairing(file, emit)
	return ds
}

// allowedLines collects the source lines carrying a pblint:allow waiver.
func allowedLines(fset *token.FileSet, file *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "pblint:allow") {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// checkTelemetrySeries flags Registry.Counter/Gauge/Histogram calls
// whose series name is a string literal. The telemetry package itself
// is exempt: it defines the constants and its tests exercise the
// registry with throwaway names.
func checkTelemetrySeries(file *ast.File, emit func(token.Pos, string, string)) {
	if file.Name.Name == "telemetry" {
		return
	}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !registerMethods[sel.Sel.Name] {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			emit(lit.Pos(), "telemetry-series",
				fmt.Sprintf("telemetry series registered with string literal %s; use the canonical constants in internal/telemetry/names.go", lit.Value))
		}
		return true
	})
}

// checkHotPaths applies the hot-path rule to every function that is
// either on the built-in hot list or carries the pblint:hotpath
// directive in its doc comment.
func checkHotPaths(file *ast.File, emit func(token.Pos, string, string)) {
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		hot := hotPathFuncs[fn.Name.Name]
		if fn.Doc != nil && strings.Contains(fn.Doc.Text(), "pblint:hotpath") {
			hot = true
		}
		if !hot {
			continue
		}
		checkHotBody("hot path "+fn.Name.Name, fn.Body, emit)
	}
}

// spanPairs maps span-opening method names to the call that must close
// them on every path out of the opening function.
var spanPairs = map[string]string{"ExecBegin": "ExecEnd"}

// checkSpanPairing enforces the span bracket discipline: in any
// function that calls a span-opening method, the matching close must
// either be deferred or appear lexically between the first open and
// every subsequent return (and at least once after the open when the
// function falls off its end). The ptrace package itself is exempt —
// it defines the bracket, and its tests open spans on purpose.
func checkSpanPairing(file *ast.File, emit func(token.Pos, string, string)) {
	if file.Name.Name == "ptrace" {
		return
	}
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		for open, close := range spanPairs {
			checkSpanPair(fn, open, close, emit)
		}
	}
}

// isSpanCall reports whether n is a method call named name (any
// receiver — the rule is lexical, matching the codebase convention
// that these names belong to ptrace lanes).
func isSpanCall(n *ast.CallExpr, name string) bool {
	sel, ok := n.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name
}

func checkSpanPair(fn *ast.FuncDecl, open, close string, emit func(token.Pos, string, string)) {
	var opens, closes []token.Pos
	var rets []token.Pos
	deferred := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if isSpanCall(n.Call, close) {
				deferred = true
			}
		case *ast.CallExpr:
			if isSpanCall(n, open) {
				opens = append(opens, n.Pos())
			} else if isSpanCall(n, close) {
				closes = append(closes, n.Pos())
			}
		case *ast.ReturnStmt:
			rets = append(rets, n.Pos())
		}
		return true
	})
	if len(opens) == 0 || deferred {
		return
	}
	first := opens[0]
	closedBefore := func(ret token.Pos) bool {
		for _, c := range closes {
			if c > first && c < ret {
				return true
			}
		}
		return false
	}
	found := false
	for _, ret := range rets {
		if ret <= first {
			continue
		}
		found = true
		if !closedBefore(ret) {
			emit(ret, "span-pairing",
				fmt.Sprintf("%s returns with an open %s span (no %s between the begin and this return; defer the end or close before returning)", fn.Name.Name, open, close))
		}
	}
	if !found && !closedBefore(fn.Body.End()) {
		emit(first, "span-pairing",
			fmt.Sprintf("%s opens an %s span it never closes (add a deferred or trailing %s)", fn.Name.Name, open, close))
	}
}

// timePackageFuncs are the wall-clock reads that cost a vDSO call (or
// worse) per packet; Since and Until call Now internally.
var timePackageFuncs = map[string]bool{"Now": true, "Since": true, "Until": true, "Sleep": true}

func checkHotBody(where string, body ast.Node, emit func(token.Pos, string, string)) {
	const rule = "hotpath"
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			emit(n.Pos(), rule, where+" defers (per-call cost on every packet; restructure or move to the caller)")
		case *ast.GoStmt:
			emit(n.Pos(), rule, where+" spawns a goroutine per call")
		case *ast.FuncLit:
			emit(n.Pos(), rule, where+" creates a closure (escapes and allocates per call)")
			return false // the literal's own body is the closure's problem
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "make" || fun.Name == "new" || fun.Name == "append" {
					emit(n.Pos(), rule, fmt.Sprintf("%s calls %s (allocates per call; preallocate in setup)", where, fun.Name))
				}
			case *ast.SelectorExpr:
				if pkg, ok := fun.X.(*ast.Ident); ok {
					if pkg.Name == "time" && timePackageFuncs[fun.Sel.Name] {
						emit(n.Pos(), rule, fmt.Sprintf("%s calls time.%s (wall-clock read per packet; hoist to the caller or gate behind metrics)", where, fun.Sel.Name))
					}
					if pkg.Name == "fmt" {
						emit(n.Pos(), rule, fmt.Sprintf("%s calls fmt.%s (formats and allocates per call)", where, fun.Sel.Name))
					}
				}
			}
		}
		return true
	})
}
