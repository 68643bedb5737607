package perlbench

import (
	"fmt"
	"strings"
)

// This file is the bytecode compiler: it turns a parsed []stmt into a flat
// program executed by the stack machine in bytecode.go. Each expression
// STRING is parsed exactly once (the tree-walker in eval.go re-parses it on
// every evaluation), constant subtrees are folded, variable/hash/array
// names are interned to slot indices, and regex literals are precompiled to
// matcher structs. The tree-walker is retained unchanged as the
// differential reference; any expression the compiler cannot handle makes
// Prepare fall back to it for the whole script, because the tree-walker
// parses expressions lazily — a malformed expression in a never-taken
// branch must NOT fail the run.
//
// The modeled profiler events are keyed to workload semantics (statement
// enters, hash probes, regex scans), not to how the interpreter is
// implemented, so the compiled program emits the exact event stream of the
// tree-walk path; the differential tests prove bit-identity.

// vop is a bytecode opcode.
type vop uint8

const (
	vHALT vop = iota

	// Statement frame ops.
	vSTMT    // steps++, limit check, Enter("pp_eval")
	vEND     // Ops(8), Leave
	vASSIGN  // scalars[a] = pop
	vPRINT   // out += pop.Str()
	vPUSHARR // arrays[a] = append(arrays[a], pop)
	vHASHSET // val=pop, key=pop: hash_ops events, hashes[a][key]=val
	vERRSTMT // raise errs[a]

	// Control flow.
	vIFBR     // c=pop, Branch(80, c); if !c jump a
	vWHILEBR  // c=pop, Branch(81, c); if !c jump a
	vLOOPPUSH // push a zero iteration counter
	vLOOPPOP  // pop the iteration counter
	vITER     // runaway check, counter++, jump a (loop top)
	vJMP      // jump a
	vFORA     // push iterator over arrays[a]
	vFORK     // push iterator over sorted keys of hashes[a]
	vITERNEXT // next item -> scalars[a], or pop iterator and jump b

	// Expressions (stack ops; branch-free because Perl's && and || are
	// eager in this dialect — see eval.go parseOr/parseAnd).
	vCONST    // push consts[a]
	vSCALAR   // push scalars[a]
	vINTERP   // push interpolated string interps[a]
	vHASHGET  // key=pop: hash_ops events, push hashes[a][key]
	vEXISTS   // key=pop: push boolVal(key in hashes[a]); no events
	vMATCH    // s=pop: push boolVal(regexes[a].match(s))
	vNOTMATCH // s=pop: push boolVal(!regexes[a].match(s))
	vADD      // binary numeric/string ops: r=pop, l=pop, push l OP r
	vSUB
	vCONCAT
	vMUL
	vDIV
	vMOD
	vNUMEQ
	vNUMNE
	vNUMLE
	vNUMGE
	vNUMLT
	vNUMGT
	vSTREQ
	vSTRNE
	vSTRLT
	vSTRGT
	vOR  // eager Perl ||: first truthy operand, else the last
	vAND // eager Perl &&: last operand if first truthy, else the first
	vNOT
	vNEG
	vLENGTH // builtins: b = evaluated arg count, extras discarded
	vUC
	vLC
	vINTB
	vINDEXB
	vSUBSTRB
	vSCALARLEN // push len(arrays[a])
	vKEYSLEN   // push len(hashes[a])
	vERR       // discard b args, raise errs[a] (statically-known arity error)
)

// instr is one bytecode instruction. a is a slot/index/jump target, b an
// argument count or secondary target.
type instr struct {
	op   vop
	a, b int32
}

// interpPart is one piece of an interpolated string: a literal chunk
// (slot < 0) or a scalar slot reference.
type interpPart struct {
	lit  string
	slot int32
}

// program is a compiled script.
type program struct {
	code    []instr
	consts  []Value
	interps [][]interpPart
	regexes []*regexProg
	errs    []error

	scalarNames []string
	arrayNames  []string
	hashNames   []string
	hashSeeds   []uint64 // fnv state after the hash name, see hashAddr

	inputSlot int // arrays slot bound to the workload corpus
	maxStack  int
}

// fragment is the compiled form of one expression string: branch-free
// stack code plus the stack depth it needs above its entry depth.
type fragment struct {
	ins      []instr
	maxDepth int
}

// compiler interns names and constants and assembles the program. All
// interning is first-encounter order over a deterministic source-order
// walk, so slot tables never depend on map iteration order.
type compiler struct {
	scalarSlots map[string]int
	scalarNames []string
	arraySlots  map[string]int
	arrayNames  []string
	hashSlots   map[string]int
	hashNames   []string

	consts   []Value
	constIdx map[string]int
	interps  [][]interpPart
	regexes  []*regexProg
	regexIdx map[string]int
	errs     []error
	errIdx   map[string]int

	// memo caches compiled fragments by expression source, so repeated
	// expression strings ("$i = $i + 1" across loop bodies) are parsed
	// and folded once.
	memo map[string]fragment

	code     []instr
	cur      int // stack depth at the current emission point
	maxStack int
}

// compileProgram compiles a parsed script. A non-nil error means the
// caller must fall back to the tree-walker for the whole script.
func compileProgram(stmts []stmt) (*program, error) {
	c := &compiler{
		scalarSlots: map[string]int{},
		arraySlots:  map[string]int{},
		hashSlots:   map[string]int{},
		constIdx:    map[string]int{},
		regexIdx:    map[string]int{},
		errIdx:      map[string]int{},
		memo:        map[string]fragment{},
	}
	input := c.arraySlot("input") // always bound by Execute
	if err := c.block(stmts); err != nil {
		return nil, err
	}
	c.op(vHALT, 0, 0)
	seeds := make([]uint64, len(c.hashNames))
	for i, n := range c.hashNames {
		seeds[i] = fnvSeed(n)
	}
	return &program{
		code:        c.code,
		consts:      c.consts,
		interps:     c.interps,
		regexes:     c.regexes,
		errs:        c.errs,
		scalarNames: c.scalarNames,
		arrayNames:  c.arrayNames,
		hashNames:   c.hashNames,
		hashSeeds:   seeds,
		inputSlot:   input,
		maxStack:    c.maxStack + 1,
	}, nil
}

func (c *compiler) scalarSlot(name string) int {
	if s, ok := c.scalarSlots[name]; ok {
		return s
	}
	s := len(c.scalarNames)
	c.scalarSlots[name] = s
	c.scalarNames = append(c.scalarNames, name)
	return s
}

func (c *compiler) arraySlot(name string) int {
	if s, ok := c.arraySlots[name]; ok {
		return s
	}
	s := len(c.arrayNames)
	c.arraySlots[name] = s
	c.arrayNames = append(c.arrayNames, name)
	return s
}

func (c *compiler) hashSlot(name string) int {
	if s, ok := c.hashSlots[name]; ok {
		return s
	}
	s := len(c.hashNames)
	c.hashSlots[name] = s
	c.hashNames = append(c.hashNames, name)
	return s
}

// constSlot interns a constant. Constants are deduplicated by string form
// — hasN is an invariant cache of numPrefix(s), so two Values with equal s
// are semantically identical — and stored with the numeric cache filled.
func (c *compiler) constSlot(v Value) int {
	if idx, ok := c.constIdx[v.s]; ok {
		return idx
	}
	idx := len(c.consts)
	c.constIdx[v.s] = idx
	c.consts = append(c.consts, Value{s: v.s, n: numPrefix(v.s), hasN: true})
	return idx
}

func (c *compiler) interpSlot(parts []interpPart) int {
	c.interps = append(c.interps, parts)
	return len(c.interps) - 1
}

func (c *compiler) regexSlot(pattern string) int {
	if idx, ok := c.regexIdx[pattern]; ok {
		return idx
	}
	idx := len(c.regexes)
	c.regexIdx[pattern] = idx
	c.regexes = append(c.regexes, compileRegex(pattern))
	return idx
}

func (c *compiler) errSlot(err error) int {
	if idx, ok := c.errIdx[err.Error()]; ok {
		return idx
	}
	idx := len(c.errs)
	c.errIdx[err.Error()] = idx
	c.errs = append(c.errs, err)
	return idx
}

// op appends one instruction and returns its index (for jump patching).
func (c *compiler) op(op vop, a, b int) int {
	c.code = append(c.code, instr{op: op, a: int32(a), b: int32(b)})
	return len(c.code) - 1
}

// splice appends a compiled expression fragment; every fragment nets
// exactly one pushed value.
func (c *compiler) splice(f fragment) {
	c.code = append(c.code, f.ins...)
	if d := c.cur + f.maxDepth; d > c.maxStack {
		c.maxStack = d
	}
	c.cur++
}

func (c *compiler) block(stmts []stmt) error {
	for i := range stmts {
		if err := c.stmtCompile(&stmts[i]); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) stmtCompile(st *stmt) error {
	switch st.kind {
	case "assign":
		f, err := c.exprFrag(st.expr)
		if err != nil {
			return err
		}
		c.op(vSTMT, 0, 0)
		c.splice(f)
		c.op(vASSIGN, c.scalarSlot(st.lhs), 0)
		c.cur--
		c.op(vEND, 0, 0)

	case "print":
		f, err := c.exprFrag(st.expr)
		if err != nil {
			return err
		}
		c.op(vSTMT, 0, 0)
		c.splice(f)
		c.op(vPRINT, 0, 0)
		c.cur--
		c.op(vEND, 0, 0)

	case "pushArr":
		f, err := c.exprFrag(st.expr)
		if err != nil {
			return err
		}
		c.op(vSTMT, 0, 0)
		c.splice(f)
		c.op(vPUSHARR, c.arraySlot(st.lhs), 0)
		c.cur--
		c.op(vEND, 0, 0)

	case "hashSet":
		// Mirrors execOne's lvalue split: first '{', last '}'.
		open := strings.IndexByte(st.lhs, '{')
		closeB := strings.LastIndexByte(st.lhs, '}')
		if open < 0 || closeB < open {
			c.op(vSTMT, 0, 0)
			c.op(vERRSTMT, c.errSlot(fmt.Errorf("%w: bad hash lvalue %q", ErrScript, st.lhs)), 0)
			c.op(vEND, 0, 0)
			return nil
		}
		name := st.lhs[1:open]
		kf, err := c.exprFrag(st.lhs[open+1 : closeB])
		if err != nil {
			return err
		}
		vf, err := c.exprFrag(st.expr)
		if err != nil {
			return err
		}
		c.op(vSTMT, 0, 0)
		c.splice(kf)
		c.splice(vf)
		c.op(vHASHSET, c.hashSlot(name), 0)
		c.cur -= 2
		c.op(vEND, 0, 0)

	case "if":
		f, err := c.exprFrag(st.cond)
		if err != nil {
			return err
		}
		c.op(vSTMT, 0, 0)
		c.splice(f)
		br := c.op(vIFBR, 0, 0)
		c.cur--
		if err := c.block(st.body); err != nil {
			return err
		}
		jmp := c.op(vJMP, 0, 0)
		c.code[br].a = int32(len(c.code))
		if err := c.block(st.else_); err != nil {
			return err
		}
		c.code[jmp].a = int32(len(c.code))
		c.op(vEND, 0, 0)

	case "while":
		f, err := c.exprFrag(st.cond)
		if err != nil {
			return err
		}
		c.op(vSTMT, 0, 0)
		c.op(vLOOPPUSH, 0, 0)
		top := len(c.code)
		c.splice(f)
		br := c.op(vWHILEBR, 0, 0)
		c.cur--
		if err := c.block(st.body); err != nil {
			return err
		}
		c.op(vITER, top, 0)
		c.code[br].a = int32(len(c.code))
		c.op(vLOOPPOP, 0, 0)
		c.op(vEND, 0, 0)

	case "foreach":
		varSlot := c.scalarSlot(st.k1)
		c.op(vSTMT, 0, 0)
		if rest, ok := strings.CutPrefix(st.k2, "keys %"); ok {
			c.op(vFORK, c.hashSlot(rest), 0)
		} else if rest, ok := strings.CutPrefix(st.k2, "@"); ok {
			c.op(vFORA, c.arraySlot(rest), 0)
		} else {
			c.op(vERRSTMT, c.errSlot(fmt.Errorf("%w: bad foreach source %q", ErrScript, st.k2)), 0)
			c.op(vEND, 0, 0)
			return nil
		}
		next := c.op(vITERNEXT, varSlot, 0)
		if err := c.block(st.body); err != nil {
			return err
		}
		c.op(vJMP, next, 0)
		c.code[next].b = int32(len(c.code))
		c.op(vEND, 0, 0)

	default:
		return fmt.Errorf("%w: unknown statement %q", ErrScript, st.kind)
	}
	return nil
}

// exprFrag compiles (and memoizes) one expression string.
func (c *compiler) exprFrag(src string) (fragment, error) {
	if f, ok := c.memo[src]; ok {
		return f, nil
	}
	ec := &exprCompiler{in: src, c: c}
	n, err := ec.full()
	if err != nil {
		return fragment{}, err
	}
	n = foldNode(n)
	em := &emitter{}
	c.emitNode(em, n)
	f := fragment{ins: em.ins, maxDepth: em.max}
	c.memo[src] = f
	return f, nil
}

// emitter builds one fragment, tracking the stack depth it needs.
type emitter struct {
	ins      []instr
	cur, max int
}

func (em *emitter) op(op vop, a, b, delta int) {
	em.ins = append(em.ins, instr{op: op, a: int32(a), b: int32(b)})
	em.cur += delta
	if em.cur > em.max {
		em.max = em.cur
	}
}

func (c *compiler) emitNode(em *emitter, n *enode) {
	switch n.kind {
	case econst:
		em.op(vCONST, c.constSlot(n.val), 0, 1)
	case escalar:
		em.op(vSCALAR, n.slot, 0, 1)
	case einterp:
		em.op(vINTERP, c.interpSlot(n.parts), 0, 1)
	case ehashget:
		c.emitNode(em, n.kids[0])
		em.op(vHASHGET, n.slot, 0, 0)
	case eexists:
		c.emitNode(em, n.kids[0])
		em.op(vEXISTS, n.slot, 0, 0)
	case ematch:
		c.emitNode(em, n.kids[0])
		em.op(n.op, n.re, 0, 0)
	case ebin:
		c.emitNode(em, n.kids[0])
		c.emitNode(em, n.kids[1])
		em.op(n.op, 0, 0, -1)
	case eunary:
		c.emitNode(em, n.kids[0])
		em.op(n.op, 0, 0, 0)
	case ebuiltin:
		for _, k := range n.kids {
			c.emitNode(em, k)
		}
		em.op(n.op, 0, len(n.kids), 1-len(n.kids))
	case escalarlen:
		em.op(vSCALARLEN, n.slot, 0, 1)
	case ekeyslen:
		em.op(vKEYSLEN, n.slot, 0, 1)
	case eerr:
		for _, k := range n.kids {
			c.emitNode(em, k)
		}
		em.op(vERR, n.errIdx, len(n.kids), 1-len(n.kids))
	}
}

// ---------------------------------------------------------------------------
// Expression AST

type ekind uint8

const (
	econst ekind = iota
	escalar
	einterp
	ehashget
	eexists
	ematch
	ebin
	eunary // vNOT / vNEG
	ebuiltin
	escalarlen
	ekeyslen
	eerr
)

type enode struct {
	kind   ekind
	val    Value // econst
	slot   int   // escalar/ehashget/eexists/escalarlen/ekeyslen
	op     vop   // ebin/eunary/ebuiltin/ematch opcode
	re     int   // ematch: regex index
	errIdx int   // eerr
	parts  []interpPart
	kids   []*enode
}

func cnode(v Value) *enode { return &enode{kind: econst, val: v} }

// foldNode constant-folds bottom-up, blua-style: a node folds only when
// every operand is constant, never across non-constant subtrees, and never
// when the operation emits profiler events (hash probes, regex scans) or
// can raise a value-dependent runtime error (division/modulo by a zero
// denominator stays a runtime op so the error surfaces exactly as the
// tree-walker raises it).
func foldNode(n *enode) *enode {
	for i, k := range n.kids {
		n.kids[i] = foldNode(k)
	}
	switch n.kind {
	case ebin:
		l, r := n.kids[0], n.kids[1]
		if l.kind != econst || r.kind != econst {
			return n
		}
		lv, rv := l.val, r.val
		switch n.op {
		case vADD:
			return cnode(NumValue(lv.Num() + rv.Num()))
		case vSUB:
			return cnode(NumValue(lv.Num() - rv.Num()))
		case vCONCAT:
			return cnode(StrValue(lv.Str() + rv.Str()))
		case vMUL:
			return cnode(NumValue(lv.Num() * rv.Num()))
		case vDIV:
			if rv.Num() == 0 {
				return n
			}
			return cnode(NumValue(lv.Num() / rv.Num()))
		case vMOD:
			if int64(rv.Num()) == 0 {
				return n
			}
			return cnode(NumValue(float64(int64(lv.Num()) % int64(rv.Num()))))
		case vNUMEQ:
			return cnode(boolVal(lv.Num() == rv.Num()))
		case vNUMNE:
			return cnode(boolVal(lv.Num() != rv.Num()))
		case vNUMLE:
			return cnode(boolVal(lv.Num() <= rv.Num()))
		case vNUMGE:
			return cnode(boolVal(lv.Num() >= rv.Num()))
		case vNUMLT:
			return cnode(boolVal(lv.Num() < rv.Num()))
		case vNUMGT:
			return cnode(boolVal(lv.Num() > rv.Num()))
		case vSTREQ:
			return cnode(boolVal(lv.Str() == rv.Str()))
		case vSTRNE:
			return cnode(boolVal(lv.Str() != rv.Str()))
		case vSTRLT:
			return cnode(boolVal(lv.Str() < rv.Str()))
		case vSTRGT:
			return cnode(boolVal(lv.Str() > rv.Str()))
		case vOR:
			if lv.Truthy() {
				return l
			}
			return r
		case vAND:
			if lv.Truthy() {
				return r
			}
			return l
		}
	case eunary:
		k := n.kids[0]
		if k.kind != econst {
			return n
		}
		if n.op == vNOT {
			return cnode(boolVal(!k.val.Truthy()))
		}
		return cnode(NumValue(-k.val.Num()))
	case ebuiltin:
		for _, k := range n.kids {
			if k.kind != econst {
				return n
			}
		}
		args := n.kids
		switch n.op {
		case vLENGTH:
			return cnode(NumValue(float64(len(args[0].val.Str()))))
		case vUC:
			return cnode(StrValue(strings.ToUpper(args[0].val.Str())))
		case vLC:
			return cnode(StrValue(strings.ToLower(args[0].val.Str())))
		case vINTB:
			return cnode(NumValue(float64(int64(args[0].val.Num()))))
		case vINDEXB:
			return cnode(NumValue(float64(strings.Index(args[0].val.Str(), args[1].val.Str()))))
		case vSUBSTRB:
			return cnode(StrValue(substrClamp(args[0].val.Str(), int(args[1].val.Num()), int(args[2].val.Num()))))
		}
	}
	return n
}

// substrClamp is substr's clamping, shared by the folder and the VM;
// semantics identical to eval.go's parseBuiltin "substr" case.
func substrClamp(s string, off, n int) string {
	if off < 0 {
		off = 0
	}
	if off > len(s) {
		off = len(s)
	}
	if off+n > len(s) {
		n = len(s) - off
	}
	if n < 0 {
		n = 0
	}
	return s[off : off+n]
}

// ---------------------------------------------------------------------------
// Expression parser: a structural mirror of eval.go's exprParser that
// builds an AST instead of evaluating. Token acceptance (whitespace, word
// boundaries, case order) matches exprParser exactly so the compiled
// grammar is the interpreted grammar; the differential fuzz target pins
// the equivalence.

type exprCompiler struct {
	in  string
	pos int
	c   *compiler
}

func (e *exprCompiler) full() (*enode, error) {
	n, err := e.parseOr()
	if err != nil {
		return nil, err
	}
	e.skipSpace()
	if e.pos != len(e.in) {
		return nil, fmt.Errorf("%w: trailing %q in expression %q", ErrScript, e.in[e.pos:], e.in)
	}
	return n, nil
}

func (e *exprCompiler) skipSpace() {
	for e.pos < len(e.in) && (e.in[e.pos] == ' ' || e.in[e.pos] == '\t') {
		e.pos++
	}
}

func (e *exprCompiler) peek(s string) bool {
	e.skipSpace()
	return strings.HasPrefix(e.in[e.pos:], s)
}

func (e *exprCompiler) accept(s string) bool {
	if e.peek(s) {
		e.pos += len(s)
		return true
	}
	return false
}

func (e *exprCompiler) acceptWord(s string) bool {
	e.skipSpace()
	if !strings.HasPrefix(e.in[e.pos:], s) {
		return false
	}
	end := e.pos + len(s)
	if end < len(e.in) && isWord(e.in[end]) {
		return false
	}
	e.pos = end
	return true
}

func (e *exprCompiler) parseOr() (*enode, error) {
	v, err := e.parseAnd()
	if err != nil {
		return nil, err
	}
	for e.accept("||") {
		r, err := e.parseAnd()
		if err != nil {
			return nil, err
		}
		v = &enode{kind: ebin, op: vOR, kids: []*enode{v, r}}
	}
	return v, nil
}

func (e *exprCompiler) parseAnd() (*enode, error) {
	v, err := e.parseCmp()
	if err != nil {
		return nil, err
	}
	for e.accept("&&") {
		r, err := e.parseCmp()
		if err != nil {
			return nil, err
		}
		v = &enode{kind: ebin, op: vAND, kids: []*enode{v, r}}
	}
	return v, nil
}

func (e *exprCompiler) parseCmp() (*enode, error) {
	v, err := e.parseAdd()
	if err != nil {
		return nil, err
	}
	bin := func(op vop) error {
		r, err := e.parseAdd()
		if err != nil {
			return err
		}
		v = &enode{kind: ebin, op: op, kids: []*enode{v, r}}
		return nil
	}
	match := func(neg bool) error {
		re, err := e.parseRegexLiteral()
		if err != nil {
			return err
		}
		op := vMATCH
		if neg {
			op = vNOTMATCH
		}
		v = &enode{kind: ematch, op: op, re: e.c.regexSlot(re), kids: []*enode{v}}
		return nil
	}
	for {
		var err error
		switch {
		case e.accept("=="):
			err = bin(vNUMEQ)
		case e.accept("!="):
			err = bin(vNUMNE)
		case e.accept("<="):
			err = bin(vNUMLE)
		case e.accept(">="):
			err = bin(vNUMGE)
		case e.accept("=~"):
			err = match(false)
		case e.accept("!~"):
			err = match(true)
		case e.accept("<"):
			err = bin(vNUMLT)
		case e.accept(">"):
			err = bin(vNUMGT)
		case e.acceptWord("eq"):
			err = bin(vSTREQ)
		case e.acceptWord("ne"):
			err = bin(vSTRNE)
		case e.acceptWord("lt"):
			err = bin(vSTRLT)
		case e.acceptWord("gt"):
			err = bin(vSTRGT)
		default:
			return v, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

func (e *exprCompiler) parseAdd() (*enode, error) {
	v, err := e.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case e.accept("+"):
			r, err := e.parseMul()
			if err != nil {
				return nil, err
			}
			v = &enode{kind: ebin, op: vADD, kids: []*enode{v, r}}
		case e.peek("-") && !e.peek("->"):
			e.pos++
			r, err := e.parseMul()
			if err != nil {
				return nil, err
			}
			v = &enode{kind: ebin, op: vSUB, kids: []*enode{v, r}}
		case e.accept("."):
			r, err := e.parseMul()
			if err != nil {
				return nil, err
			}
			v = &enode{kind: ebin, op: vCONCAT, kids: []*enode{v, r}}
		default:
			return v, nil
		}
	}
}

func (e *exprCompiler) parseMul() (*enode, error) {
	v, err := e.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case e.accept("*"):
			r, err := e.parseUnary()
			if err != nil {
				return nil, err
			}
			v = &enode{kind: ebin, op: vMUL, kids: []*enode{v, r}}
		case e.accept("/"):
			r, err := e.parseUnary()
			if err != nil {
				return nil, err
			}
			v = &enode{kind: ebin, op: vDIV, kids: []*enode{v, r}}
		case e.accept("%"):
			r, err := e.parseUnary()
			if err != nil {
				return nil, err
			}
			v = &enode{kind: ebin, op: vMOD, kids: []*enode{v, r}}
		default:
			return v, nil
		}
	}
}

func (e *exprCompiler) parseUnary() (*enode, error) {
	switch {
	case e.accept("!"):
		v, err := e.parseUnary()
		if err != nil {
			return nil, err
		}
		return &enode{kind: eunary, op: vNOT, kids: []*enode{v}}, nil
	case e.accept("-"):
		v, err := e.parseUnary()
		if err != nil {
			return nil, err
		}
		return &enode{kind: eunary, op: vNEG, kids: []*enode{v}}, nil
	default:
		return e.parsePrimary()
	}
}

func (e *exprCompiler) parsePrimary() (*enode, error) {
	e.skipSpace()
	if e.pos >= len(e.in) {
		return nil, fmt.Errorf("%w: unexpected end of expression %q", ErrScript, e.in)
	}
	c := e.in[e.pos]
	switch {
	case c == '(':
		e.pos++
		v, err := e.parseOr()
		if err != nil {
			return nil, err
		}
		if !e.accept(")") {
			return nil, fmt.Errorf("%w: missing ')' in %q", ErrScript, e.in)
		}
		return v, nil
	case c == '"':
		return e.parseString()
	case c >= '0' && c <= '9':
		start := e.pos
		for e.pos < len(e.in) && (e.in[e.pos] >= '0' && e.in[e.pos] <= '9' || e.in[e.pos] == '.') {
			e.pos++
		}
		return cnode(StrValue(e.in[start:e.pos])), nil
	case c == '$':
		return e.parseDollar()
	default:
		for _, fn := range []string{"length", "substr", "uc", "lc", "index", "scalar", "exists", "keys", "int"} {
			if e.acceptWord(fn) {
				return e.parseBuiltin(fn)
			}
		}
		return nil, fmt.Errorf("%w: unexpected %q in expression %q", ErrScript, c, e.in)
	}
}

// parseString mirrors eval.go's parseString, splitting the literal into
// chunks and scalar-slot references resolved at execution time.
func (e *exprCompiler) parseString() (*enode, error) {
	e.pos++ // opening quote
	var parts []interpPart
	var sb strings.Builder
	flush := func() {
		if sb.Len() > 0 {
			parts = append(parts, interpPart{lit: sb.String(), slot: -1})
			sb.Reset()
		}
	}
	for e.pos < len(e.in) {
		c := e.in[e.pos]
		switch c {
		case '"':
			e.pos++
			flush()
			for _, p := range parts {
				if p.slot >= 0 {
					return &enode{kind: einterp, parts: parts}, nil
				}
			}
			var all strings.Builder
			for _, p := range parts {
				all.WriteString(p.lit)
			}
			return cnode(StrValue(all.String())), nil
		case '\\':
			e.pos++
			if e.pos >= len(e.in) {
				return nil, fmt.Errorf("%w: dangling escape", ErrScript)
			}
			switch e.in[e.pos] {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			default:
				sb.WriteByte(e.in[e.pos])
			}
			e.pos++
		case '$':
			j := e.pos + 1
			for j < len(e.in) && isWord(e.in[j]) {
				j++
			}
			name := e.in[e.pos+1 : j]
			if name == "" {
				sb.WriteByte('$')
				e.pos++
				continue
			}
			flush()
			parts = append(parts, interpPart{slot: int32(e.c.scalarSlot(name))})
			e.pos = j
		default:
			sb.WriteByte(c)
			e.pos++
		}
	}
	return nil, fmt.Errorf("%w: unterminated string", ErrScript)
}

func (e *exprCompiler) parseDollar() (*enode, error) {
	e.pos++ // '$'
	start := e.pos
	for e.pos < len(e.in) && isWord(e.in[e.pos]) {
		e.pos++
	}
	name := e.in[start:e.pos]
	if name == "" {
		return nil, fmt.Errorf("%w: bare '$'", ErrScript)
	}
	if e.pos < len(e.in) && e.in[e.pos] == '{' {
		depth := 0
		j := e.pos
		for ; j < len(e.in); j++ {
			if e.in[j] == '{' {
				depth++
			} else if e.in[j] == '}' {
				depth--
				if depth == 0 {
					break
				}
			}
		}
		if depth != 0 {
			return nil, fmt.Errorf("%w: unbalanced hash braces", ErrScript)
		}
		keySrc := e.in[e.pos+1 : j]
		e.pos = j + 1
		sub := &exprCompiler{in: keySrc, c: e.c}
		key, err := sub.full()
		if err != nil {
			return nil, err
		}
		return &enode{kind: ehashget, slot: e.c.hashSlot(name), kids: []*enode{key}}, nil
	}
	return &enode{kind: escalar, slot: e.c.scalarSlot(name)}, nil
}

func (e *exprCompiler) parseRegexLiteral() (string, error) {
	e.skipSpace()
	if e.pos >= len(e.in) || e.in[e.pos] != '/' {
		return "", fmt.Errorf("%w: expected /regex/", ErrScript)
	}
	end := strings.IndexByte(e.in[e.pos+1:], '/')
	if end < 0 {
		return "", fmt.Errorf("%w: unterminated regex", ErrScript)
	}
	re := e.in[e.pos+1 : e.pos+1+end]
	e.pos += end + 2
	return re, nil
}

func (e *exprCompiler) parseBuiltin(fn string) (*enode, error) {
	if !e.accept("(") {
		return nil, fmt.Errorf("%w: %s requires parentheses", ErrScript, fn)
	}
	switch fn {
	case "scalar", "keys":
		e.skipSpace()
		sigil := byte('@')
		if fn == "keys" {
			sigil = '%'
		}
		if e.pos >= len(e.in) || e.in[e.pos] != sigil {
			return nil, fmt.Errorf("%w: %s expects %c-name", ErrScript, fn, sigil)
		}
		e.pos++
		start := e.pos
		for e.pos < len(e.in) && isWord(e.in[e.pos]) {
			e.pos++
		}
		name := e.in[start:e.pos]
		if !e.accept(")") {
			return nil, fmt.Errorf("%w: missing ')'", ErrScript)
		}
		if fn == "scalar" {
			return &enode{kind: escalarlen, slot: e.c.arraySlot(name)}, nil
		}
		return &enode{kind: ekeyslen, slot: e.c.hashSlot(name)}, nil
	case "exists":
		e.skipSpace()
		if e.pos >= len(e.in) || e.in[e.pos] != '$' {
			return nil, fmt.Errorf("%w: exists expects $hash{key}", ErrScript)
		}
		e.pos++
		start := e.pos
		for e.pos < len(e.in) && isWord(e.in[e.pos]) {
			e.pos++
		}
		name := e.in[start:e.pos]
		if e.pos >= len(e.in) || e.in[e.pos] != '{' {
			return nil, fmt.Errorf("%w: exists expects $hash{key}", ErrScript)
		}
		depth := 0
		j := e.pos
		for ; j < len(e.in); j++ {
			if e.in[j] == '{' {
				depth++
			} else if e.in[j] == '}' {
				depth--
				if depth == 0 {
					break
				}
			}
		}
		if depth != 0 {
			// The tree-walker scans past the end here; bail to it.
			return nil, fmt.Errorf("%w: unbalanced hash braces", ErrScript)
		}
		keySrc := e.in[e.pos+1 : j]
		e.pos = j + 1
		if !e.accept(")") {
			return nil, fmt.Errorf("%w: missing ')'", ErrScript)
		}
		sub := &exprCompiler{in: keySrc, c: e.c}
		key, err := sub.full()
		if err != nil {
			return nil, err
		}
		return &enode{kind: eexists, slot: e.c.hashSlot(name), kids: []*enode{key}}, nil
	}
	var args []*enode
	for {
		v, err := e.parseOr()
		if err != nil {
			return nil, err
		}
		args = append(args, v)
		if e.accept(",") {
			continue
		}
		break
	}
	if !e.accept(")") {
		return nil, fmt.Errorf("%w: missing ')' after %s", ErrScript, fn)
	}
	// Arity failures are raised AFTER the args are evaluated, exactly as
	// the tree-walker does: compile the args, then an unconditional raise.
	switch fn {
	case "length":
		return &enode{kind: ebuiltin, op: vLENGTH, kids: args}, nil
	case "uc":
		return &enode{kind: ebuiltin, op: vUC, kids: args}, nil
	case "lc":
		return &enode{kind: ebuiltin, op: vLC, kids: args}, nil
	case "int":
		return &enode{kind: ebuiltin, op: vINTB, kids: args}, nil
	case "index":
		if len(args) < 2 {
			return &enode{kind: eerr, errIdx: e.c.errSlot(fmt.Errorf("%w: index needs 2 args", ErrScript)), kids: args}, nil
		}
		return &enode{kind: ebuiltin, op: vINDEXB, kids: args}, nil
	case "substr":
		if len(args) < 3 {
			return &enode{kind: eerr, errIdx: e.c.errSlot(fmt.Errorf("%w: substr needs 3 args", ErrScript)), kids: args}, nil
		}
		return &enode{kind: ebuiltin, op: vSUBSTRB, kids: args}, nil
	default:
		return nil, fmt.Errorf("%w: unknown builtin %s", ErrScript, fn)
	}
}
