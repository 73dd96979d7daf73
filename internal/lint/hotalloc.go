package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// HotallocAnalyzer flags heap allocations inside declared hot paths.
// A hot path is rooted at a function whose doc comment carries
//
//	//vdc:hotpath <scenario>
//
// where <scenario> names the vdcbench scenario whose allocs/op the code
// dominates. Inside a root with a for or range statement, the hot region
// is every loop body (one-time setup before the loop is exempt). A root
// with no loop is hot over its whole body: it runs once per event, so
// its caller's loop is its loop. Any package-local function called from
// a hot region is hot over its whole body, transitively — which also
// makes a recursive root hot everywhere. Findings name the scenario so a
// hit can be reproduced with vdcbench run.
//
// Flagged allocation sites: make(map/slice/chan), map/slice composite
// literals, &composite literals, new(), growing append, function
// literals (closure capture), fmt calls, and interface boxing at call
// arguments. Preallocate outside the loop, reuse scratch buffers, or
// suppress with //lint:ignore hotalloc <reason> when the allocation is
// deliberate.
func HotallocAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "hotalloc",
		Doc: "no heap allocations inside declared //vdc:hotpath regions: " +
			"make, map/slice/&composite literals, new, growing append, closures, " +
			"fmt, and interface boxing are flagged with the owning vdcbench " +
			"scenario; hoist the allocation or annotate why it must stay",
		Run: runHotalloc,
	}
}

// hotpathRe parses the root annotation. The scenario grammar mirrors
// internal/bench's scenarioNameRe.
var (
	hotpathRe      = regexp.MustCompile(`^//vdc:hotpath(?:\s+(.*?))?\s*$`)
	hotScenarioRe  = regexp.MustCompile(`^[a-z0-9]+(?:[-.][a-z0-9]+)*(?:/[a-z0-9]+(?:[-.][a-z0-9]+)*)*$`)
	hotpathComment = "//vdc:hotpath"
)

// hotRoot is one annotated function.
type hotRoot struct {
	decl     *ast.FuncDecl
	scenario string
}

func runHotalloc(p *Pass) {
	roots := collectHotRoots(p)
	if len(roots) == 0 {
		return
	}
	decls := funcDecls(p.Pkg)

	// Transitive closure: functions whose whole body is hot because they
	// are called from a hot region. Seed from calls inside root loops,
	// then saturate over whole-hot bodies. Attribution is first-wins in
	// root source order, which is deterministic.
	wholeHot := map[*types.Func]string{}
	var frontier []*types.Func
	absorb := func(fn *types.Func, scenario string) {
		if fn == nil || wholeHot[fn] != "" {
			return
		}
		if _, local := decls[fn]; !local {
			return
		}
		wholeHot[fn] = scenario
		frontier = append(frontier, fn)
	}
	for _, r := range roots {
		walkHotRegions(r.decl.Body, !hasLoop(r.decl.Body), func(n ast.Node) {
			if call, ok := n.(*ast.CallExpr); ok {
				absorb(calleeFunc(p.Pkg.Info, call), r.scenario)
			}
		})
	}
	for len(frontier) > 0 {
		fn := frontier[0]
		frontier = frontier[1:]
		scenario := wholeHot[fn]
		ast.Inspect(decls[fn].Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				absorb(calleeFunc(p.Pkg.Info, call), scenario)
			}
			return true
		})
	}

	// Report pass. Whole-hot functions and loop-less roots are checked
	// everywhere; other roots that are not themselves whole-hot (e.g.
	// via recursion) only inside their loops. Allocations on aborting
	// paths (panic messages, error-typed return results) are
	// steady-state-free and exempt.
	report := func(decl *ast.FuncDecl, wholeBody bool, scenario string) {
		cold := coldRanges(p.Pkg.Info, decl.Body)
		walkHotRegions(decl.Body, wholeBody, func(n ast.Node) {
			if inColdRange(cold, n.Pos()) {
				return
			}
			reportHotNode(p, n, scenario)
		})
	}
	reported := map[*ast.FuncDecl]bool{}
	for fn, decl := range decls {
		scenario, whole := wholeHot[fn]
		if !whole {
			continue
		}
		reported[decl] = true
		report(decl, true, scenario)
	}
	for _, r := range roots {
		if reported[r.decl] {
			continue
		}
		report(r.decl, !hasLoop(r.decl.Body), r.scenario)
	}
}

// hasLoop reports whether body holds a for or range statement.
func hasLoop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			found = true
		}
		return !found
	})
	return found
}

// coldRanges collects source ranges whose allocations do not count as
// hot: the arguments of panic calls and error-typed results of return
// statements. Both only execute on a path that abandons the hot loop,
// so their cost never shows up in a steady-state allocs/op profile.
func coldRanges(info *types.Info, body *ast.BlockStmt) [][2]token.Pos {
	var out [][2]token.Pos
	errType := types.Universe.Lookup("error").Type()
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					out = append(out, [2]token.Pos{n.Lparen, n.Rparen})
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if tv, ok := info.Types[r]; ok && tv.Type != nil && types.Identical(tv.Type, errType) {
					out = append(out, [2]token.Pos{r.Pos(), r.End()})
				}
			}
		}
		return true
	})
	return out
}

// isReusedSlice recognizes the x[:0] reuse idiom: appending to a
// zero-length reslice of an existing buffer grows into its retained
// capacity, so steady-state iterations allocate nothing.
func isReusedSlice(e ast.Expr) bool {
	se, ok := ast.Unparen(e).(*ast.SliceExpr)
	if !ok || se.Slice3 {
		return false
	}
	if se.Low != nil {
		lo, ok := ast.Unparen(se.Low).(*ast.BasicLit)
		if !ok || lo.Value != "0" {
			return false
		}
	}
	hi, ok := ast.Unparen(se.High).(*ast.BasicLit)
	return ok && hi.Value == "0"
}

// inColdRange reports whether pos falls inside any collected range.
func inColdRange(cold [][2]token.Pos, pos token.Pos) bool {
	for _, r := range cold {
		if r[0] <= pos && pos < r[1] {
			return true
		}
	}
	return false
}

// collectHotRoots finds //vdc:hotpath-annotated functions and reports
// malformed annotations. Roots come back in source order.
func collectHotRoots(p *Pass) []hotRoot {
	var roots []hotRoot
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil || fd.Body == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				m := hotpathRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				if m[1] == "" || !hotScenarioRe.MatchString(m[1]) {
					p.Reportf(c.Pos(), "malformed %s annotation: want %s <vdcbench-scenario> (lowercase slug segments, e.g. mpc/solve)", hotpathComment, hotpathComment)
					continue
				}
				roots = append(roots, hotRoot{decl: fd, scenario: m[1]})
			}
		}
	}
	return roots
}

// walkHotRegions visits the nodes of body that execute per iteration:
// every node when wholeBody is set, otherwise only nodes inside a
// for/range loop. Function-literal bodies are visited (a closure inside
// a hot loop runs in the loop), but the callback decides what to flag.
func walkHotRegions(body *ast.BlockStmt, wholeBody bool, visit func(ast.Node)) {
	depth := 0
	if wholeBody {
		depth = 1
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			if n.Init != nil && depth > 0 {
				ast.Inspect(n.Init, func(m ast.Node) bool {
					if m != nil {
						visit(m)
					}
					return true
				})
			}
			if n.Cond != nil {
				// The condition re-evaluates per iteration even at the
				// outermost loop.
				depth++
				ast.Inspect(n.Cond, func(m ast.Node) bool {
					if m != nil {
						visit(m)
					}
					return true
				})
				depth--
			}
			depth++
			if n.Post != nil {
				ast.Inspect(n.Post, func(m ast.Node) bool {
					if m != nil {
						visit(m)
					}
					return true
				})
			}
			ast.Inspect(n.Body, walk)
			depth--
			return false
		case *ast.RangeStmt:
			if depth > 0 {
				ast.Inspect(n.X, func(m ast.Node) bool {
					if m != nil {
						visit(m)
					}
					return true
				})
			}
			depth++
			ast.Inspect(n.Body, walk)
			depth--
			return false
		case nil:
			return true
		}
		if depth > 0 {
			visit(n)
		}
		return true
	}
	ast.Inspect(body, walk)
}

// reportHotNode flags n when it is an allocation site.
func reportHotNode(p *Pass, n ast.Node, scenario string) {
	info := p.Pkg.Info
	at := func(pos token.Pos, format string, args ...any) {
		args = append(args, scenario)
		p.Reportf(pos, format+" in a hot path (vdcbench scenario %s); hoist it out of the loop, reuse a scratch buffer, or annotate why it must stay", args...)
	}
	switch n := n.(type) {
	case *ast.FuncLit:
		at(n.Pos(), "function literal allocates a closure")
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				at(n.Pos(), "&composite literal allocates")
			}
		}
	case *ast.CompositeLit:
		tv, ok := info.Types[n]
		if !ok || tv.Type == nil {
			return
		}
		switch tv.Type.Underlying().(type) {
		case *types.Map:
			at(n.Pos(), "map literal allocates")
		case *types.Slice:
			at(n.Pos(), "slice literal allocates")
		}
	case *ast.CallExpr:
		switch builtinName(info, n) {
		case "make":
			at(n.Pos(), "make allocates")
			return
		case "append":
			if len(n.Args) > 0 && isReusedSlice(n.Args[0]) {
				return // append(x[:0], ...) reuses x's backing array
			}
			at(n.Pos(), "append may grow its backing array")
			return
		case "new":
			at(n.Pos(), "new allocates")
			return
		case "":
		default:
			return
		}
		if conversionType(info, n) != nil {
			return
		}
		if fn := calleeFunc(info, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			at(n.Pos(), "fmt.%s formats through interfaces and allocates", fn.Name())
			return
		}
		reportBoxing(p, n, at)
	}
}

// reportBoxing flags call arguments whose concrete value is passed to an
// interface-typed parameter — each such pass boxes on the heap unless
// the value is already an interface or a constant nil.
func reportBoxing(p *Pass, call *ast.CallExpr, at func(token.Pos, string, ...any)) {
	info := p.Pkg.Info
	sig := signatureOf(info, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		tv, ok := info.Types[arg]
		if !ok || tv.Type == nil || types.IsInterface(tv.Type) {
			continue
		}
		if b, ok := tv.Type.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		at(arg.Pos(), "argument boxes a concrete value into an interface")
	}
}
