package xalan

import (
	"strconv"
	"strings"

	"repro/internal/perf"
)

// This file is the compiled execution engine for stylesheets: templates are
// lowered once, at Prepare time, to an instruction stream with every string
// decision pre-decomposed — match patterns classified, select paths split
// into steps, instruction names and attribute lookups resolved to enum tags
// and struct fields. The tree-walking Transformer in xslt.go is retained as
// the differential reference; both engines emit the same modeled event
// stream and produce the same output tree, which the tests in
// compiled_test.go enforce bit-for-bit.

// matchKind classifies a template match pattern.
type matchKind uint8

const (
	matchName matchKind = iota // plain element name
	matchRoot                  // "/"
	matchText                  // "text()"
	matchWild                  // "*"
)

// cselKind classifies a select path.
type cselKind uint8

const (
	selSelf    cselKind = iota // "" or "."
	selDescend                 // "//name" or "//*"
	selPath                    // "a/b/c", single names and "*" steps
)

// cstep is one pre-split path step.
type cstep struct {
	name string
	wild bool
}

// csel is a pre-decomposed select expression.
type csel struct {
	kind  cselKind
	name  string // descend: element name ("" from a bare "//")
	wild  bool   // descend: "*"
	steps []cstep
}

// cvalKind classifies a value expression.
type cvalKind uint8

const (
	valSelf cvalKind = iota // "" or "." → context text content
	valName                 // "name()"
	valAttr                 // "@attr"
	valPath                 // node path, first match's text
)

// cval is a pre-decomposed value expression.
type cval struct {
	kind cvalKind
	attr string
	sel  csel
}

// ctestKind classifies a predicate.
type ctestKind uint8

const (
	testEq         ctestKind = iota // lhs='v'
	testAttrExists                  // "@attr"
	testPathExists                  // bare path
)

// ctest is a pre-parsed predicate.
type ctest struct {
	kind ctestKind
	lhs  cval
	rhs  string
	attr string
	sel  csel
}

// xop is a compiled instruction opcode.
type xop uint8

const (
	xText     xop = iota // literal text node from the template body
	xElement             // <element name=...>
	xAttr                // <attribute name=... select=...>
	xValueOf             // <value-of select=...>
	xCount               // <count select=...>
	xApplySel            // <apply-templates select=...>
	xApplyAll            // <apply-templates> without select
	xForEach             // <for-each select=...>
	xIf                  // <if test=...>
	xTextLit             // <text value=...>
	xLiteral             // unknown instruction copied through
)

// cinstr is one pre-decoded instruction.
type cinstr struct {
	op    xop
	text  string // xText text, xElement/xAttr name, xTextLit value, xLiteral name
	val   cval   // xAttr, xValueOf
	sel   csel   // xCount, xApplySel, xForEach
	test  ctest  // xIf
	attrs []Attr // xLiteral attribute copy
	body  []cinstr
}

// ctemplate is one compiled match rule. name keeps the original match
// string for all kinds: findTemplate's element-name comparison is a raw
// string compare in the reference engine (an element literally named "*"
// name-matches a wildcard template), and the compiled engine mirrors that.
type ctemplate struct {
	kind matchKind
	name string
	body []cinstr
}

// compiledSheet is the lowered stylesheet program.
type compiledSheet struct {
	templates []ctemplate
}

// compileSel pre-decomposes a select expression. Every string survives
// decomposition exactly as selectNodes would interpret it at run time, so
// compilation cannot fail.
func compileSel(sel string) csel {
	if sel == "" || sel == "." {
		return csel{kind: selSelf}
	}
	if rest, ok := strings.CutPrefix(sel, "//"); ok {
		return csel{kind: selDescend, name: rest, wild: rest == "*"}
	}
	parts := strings.Split(sel, "/")
	steps := make([]cstep, len(parts))
	for i, s := range parts {
		steps[i] = cstep{name: s, wild: s == "*"}
	}
	return csel{kind: selPath, steps: steps}
}

// compileVal pre-decomposes a value expression, in valueOf's case order.
func compileVal(sel string) cval {
	switch {
	case sel == "" || sel == ".":
		return cval{kind: valSelf}
	case sel == "name()":
		return cval{kind: valName}
	case strings.HasPrefix(sel, "@"):
		return cval{kind: valAttr, attr: sel[1:]}
	default:
		return cval{kind: valPath, sel: compileSel(sel)}
	}
}

// compileTest pre-parses a predicate, in evalTest's case order.
func compileTest(test string) ctest {
	if eq := strings.Index(test, "="); eq >= 0 {
		lhs := strings.TrimSpace(test[:eq])
		rhs := strings.Trim(strings.TrimSpace(test[eq+1:]), "'\"")
		return ctest{kind: testEq, lhs: compileVal(lhs), rhs: rhs}
	}
	if strings.HasPrefix(test, "@") {
		return ctest{kind: testAttrExists, attr: test[1:]}
	}
	return ctest{kind: testPathExists, sel: compileSel(test)}
}

// compileBody lowers a template body to the instruction stream.
func compileBody(body []*Node) []cinstr {
	out := make([]cinstr, 0, len(body))
	for _, instr := range body {
		if instr.Kind == TextNode {
			out = append(out, cinstr{op: xText, text: instr.Text})
			continue
		}
		switch instr.Name {
		case "element":
			name, _ := instr.Attr("name")
			out = append(out, cinstr{op: xElement, text: name, body: compileBody(instr.Children)})
		case "attribute":
			name, _ := instr.Attr("name")
			sel, _ := instr.Attr("select")
			out = append(out, cinstr{op: xAttr, text: name, val: compileVal(sel)})
		case "value-of":
			sel, _ := instr.Attr("select")
			out = append(out, cinstr{op: xValueOf, val: compileVal(sel)})
		case "count":
			sel, _ := instr.Attr("select")
			out = append(out, cinstr{op: xCount, sel: compileSel(sel)})
		case "apply-templates":
			sel, hasSel := instr.Attr("select")
			if hasSel {
				out = append(out, cinstr{op: xApplySel, sel: compileSel(sel)})
			} else {
				out = append(out, cinstr{op: xApplyAll})
			}
		case "for-each":
			sel, _ := instr.Attr("select")
			out = append(out, cinstr{op: xForEach, sel: compileSel(sel), body: compileBody(instr.Children)})
		case "if":
			test, _ := instr.Attr("test")
			out = append(out, cinstr{op: xIf, test: compileTest(test), body: compileBody(instr.Children)})
		case "text":
			v, _ := instr.Attr("value")
			out = append(out, cinstr{op: xTextLit, text: v})
		default:
			out = append(out, cinstr{op: xLiteral, text: instr.Name, attrs: instr.Attrs, body: compileBody(instr.Children)})
		}
	}
	return out
}

// compileSheet lowers a parsed stylesheet to its instruction-stream form.
func compileSheet(ss *Stylesheet) *compiledSheet {
	cs := &compiledSheet{templates: make([]ctemplate, len(ss.templates))}
	for i, tpl := range ss.templates {
		kind := matchName
		switch tpl.match {
		case "/":
			kind = matchRoot
		case "text()":
			kind = matchText
		case "*":
			kind = matchWild
		}
		cs.templates[i] = ctemplate{kind: kind, name: tpl.match, body: compileBody(tpl.body)}
	}
	return cs
}

// cexec executes a compiled sheet. It declares the same footprints and
// emits the same event stream as NewTransformer + Transform.
type cexec struct {
	cs *compiledSheet
	p  *perf.Profiler
}

// transform mirrors Transformer.Transform on the compiled program.
func (cs *compiledSheet) transform(root *Node, p *perf.Profiler) *Node {
	if p != nil {
		p.SetFootprint("match_template", 5<<10)
		p.SetFootprint("exec_template", 6<<10)
		p.SetFootprint("select_nodes", 4<<10)
		p.SetFootprint("exec_valueof", 2<<10)
		p.SetFootprint("exec_foreach", 2<<10)
		p.SetFootprint("exec_if", 2<<10)
	}
	e := &cexec{cs: cs, p: p}
	out := &Node{Kind: ElementNode, Name: "out"}
	e.applyTo(root, out, true)
	return out
}

// findTemplate mirrors Transformer.findTemplate: the full template scan,
// one Ops(3)+Load+Branch(41) triple per rule, first hit wins, first
// wildcard is the fallback.
func (e *cexec) findTemplate(n *Node, isRoot bool) *ctemplate {
	if e.p != nil {
		e.p.Enter("match_template")
		defer e.p.Leave()
	}
	var wildcard *ctemplate
	for i := range e.cs.templates {
		tpl := &e.cs.templates[i]
		var hit bool
		switch {
		case n.Kind == TextNode:
			hit = tpl.kind == matchText
		case isRoot && tpl.kind == matchRoot:
			hit = true
		case tpl.name == n.Name:
			hit = true
		case tpl.kind == matchWild:
			if wildcard == nil {
				wildcard = tpl
			}
		}
		if e.p != nil {
			e.p.Ops(3)
			e.p.Load(parseAddr + uint64(i)*64)
			e.p.Branch(41, hit)
		}
		if hit {
			return tpl
		}
	}
	return wildcard
}

// applyTo mirrors Transformer.applyTo, including the built-in rules.
func (e *cexec) applyTo(n *Node, parent *Node, isRoot bool) {
	tpl := e.findTemplate(n, isRoot)
	if tpl == nil {
		if n.Kind == TextNode {
			parent.Children = append(parent.Children, &Node{Kind: TextNode, Text: n.Text, Parent: parent})
			return
		}
		for _, c := range n.Children {
			e.applyTo(c, parent, false)
		}
		return
	}
	if e.p != nil {
		e.p.Enter("exec_template")
		defer e.p.Leave()
	}
	e.execBody(tpl.body, n, parent)
}

// execBody is the compiled dispatch loop: a flat switch over pre-decoded
// opcodes in place of per-instruction name comparisons and attribute scans.
func (e *cexec) execBody(body []cinstr, ctx *Node, parent *Node) {
	for i := range body {
		in := &body[i]
		switch in.op {
		case xText:
			parent.Children = append(parent.Children, &Node{Kind: TextNode, Text: in.text, Parent: parent})
			if e.p != nil {
				e.p.Ops(uint64(len(in.text)))
			}
		case xElement:
			el := &Node{Kind: ElementNode, Name: in.text, Parent: parent}
			parent.Children = append(parent.Children, el)
			e.execBody(in.body, ctx, el)
		case xAttr:
			parent.Attrs = append(parent.Attrs, Attr{Name: in.text, Value: e.valueOf(&in.val, ctx)})
		case xValueOf:
			if e.p != nil {
				e.p.Enter("exec_valueof")
			}
			v := e.valueOf(&in.val, ctx)
			parent.Children = append(parent.Children, &Node{Kind: TextNode, Text: v, Parent: parent})
			if e.p != nil {
				e.p.Ops(uint64(4 + len(v)))
				e.p.Leave()
			}
		case xCount:
			nodes := e.selectNodes(&in.sel, ctx)
			parent.Children = append(parent.Children, &Node{
				Kind: TextNode, Text: strconv.Itoa(len(nodes)), Parent: parent,
			})
		case xApplySel:
			for _, target := range e.selectNodes(&in.sel, ctx) {
				e.applyTo(target, parent, false)
			}
		case xApplyAll:
			for _, target := range ctx.Children {
				e.applyTo(target, parent, false)
			}
		case xForEach:
			if e.p != nil {
				e.p.Enter("exec_foreach")
			}
			for _, target := range e.selectNodes(&in.sel, ctx) {
				e.execBody(in.body, target, parent)
				if e.p != nil {
					e.p.Ops(4)
					e.p.Branch(42, true)
				}
			}
			if e.p != nil {
				e.p.Leave()
			}
		case xIf:
			if e.p != nil {
				e.p.Enter("exec_if")
			}
			pass := e.evalTest(&in.test, ctx)
			if e.p != nil {
				e.p.Ops(6)
				e.p.Branch(43, pass)
				e.p.Leave()
			}
			if pass {
				e.execBody(in.body, ctx, parent)
			}
		case xTextLit:
			parent.Children = append(parent.Children, &Node{Kind: TextNode, Text: in.text, Parent: parent})
		case xLiteral:
			el := &Node{Kind: ElementNode, Name: in.text, Attrs: in.attrs, Parent: parent}
			parent.Children = append(parent.Children, el)
			e.execBody(in.body, ctx, el)
		}
	}
}

// selectNodes mirrors Transformer.selectNodes on the pre-split path: the
// same Ops/Branch(44) cadence per candidate per step.
func (e *cexec) selectNodes(sel *csel, ctx *Node) []*Node {
	if e.p != nil {
		e.p.Enter("select_nodes")
		defer e.p.Leave()
	}
	switch sel.kind {
	case selSelf:
		return []*Node{ctx}
	case selDescend:
		var out []*Node
		var walk func(*Node)
		walk = func(n *Node) {
			if e.p != nil {
				e.p.Ops(2)
			}
			for _, c := range n.Children {
				if c.Kind == ElementNode {
					if c.Name == sel.name || sel.wild {
						out = append(out, c)
					}
					walk(c)
				}
			}
		}
		walk(ctx)
		return out
	default:
		current := []*Node{ctx}
		for _, step := range sel.steps {
			var next []*Node
			for _, n := range current {
				for _, c := range n.Children {
					match := c.Kind == ElementNode && (c.Name == step.name || step.wild)
					if e.p != nil {
						e.p.Ops(2)
						e.p.Branch(44, match)
					}
					if match {
						next = append(next, c)
					}
				}
			}
			current = next
		}
		return current
	}
}

// valueOf mirrors Transformer.valueOf on the pre-classified expression.
func (e *cexec) valueOf(v *cval, ctx *Node) string {
	switch v.kind {
	case valSelf:
		return ctx.TextContent()
	case valName:
		return ctx.Name
	case valAttr:
		s, _ := ctx.Attr(v.attr)
		return s
	default:
		nodes := e.selectNodes(&v.sel, ctx)
		if len(nodes) == 0 {
			return ""
		}
		return nodes[0].TextContent()
	}
}

// evalTest mirrors Transformer.evalTest on the pre-parsed predicate.
func (e *cexec) evalTest(t *ctest, ctx *Node) bool {
	switch t.kind {
	case testEq:
		return e.valueOf(&t.lhs, ctx) == t.rhs
	case testAttrExists:
		_, ok := ctx.Attr(t.attr)
		return ok
	default:
		return len(e.selectNodes(&t.sel, ctx)) > 0
	}
}
