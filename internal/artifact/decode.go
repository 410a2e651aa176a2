package artifact

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"tbaa/internal/alias"
	"tbaa/internal/ir"
	"tbaa/internal/modref"
	"tbaa/internal/types"
)

// dec is a sticky-error payload reader: after the first failure every
// read returns a zero value, so decode logic can run straight-line and
// check err once per section. Every count is bounded by the bytes that
// remain (each element costs at least one byte), so hostile lengths
// cannot drive allocations past the file's own size.
type dec struct {
	data []byte
	pos  int
	strs []string
	err  error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("artifact: "+format, args...)
	}
}

func (d *dec) u() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.fail("truncated or malformed varint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *dec) i() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		d.fail("truncated or malformed varint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *dec) b() bool {
	if d.err != nil {
		return false
	}
	if d.pos >= len(d.data) {
		d.fail("truncated payload")
		return false
	}
	v := d.data[d.pos]
	d.pos++
	if v > 1 {
		d.fail("malformed bool %d at offset %d", v, d.pos-1)
		return false
	}
	return v == 1
}

// count reads a length and bounds it against the remaining bytes.
func (d *dec) count(what string) int {
	n := d.u()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.data)-d.pos) {
		d.fail("%s count %d exceeds remaining payload", what, n)
		return 0
	}
	return int(n)
}

func (d *dec) str() string {
	ix := d.u()
	if d.err != nil {
		return ""
	}
	if ix >= uint64(len(d.strs)) {
		d.fail("string reference %d out of range", ix)
		return ""
	}
	return d.strs[ix]
}

func (d *dec) int32s(what string) []int32 {
	n := d.count(what)
	if n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		v := d.i()
		if v < -1<<31 || v >= 1<<31 {
			d.fail("%s entry %d overflows int32", what, i)
			return nil
		}
		out[i] = int32(v)
	}
	return out
}

func (d *dec) words(what string) []uint64 {
	n := d.count(what)
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.u()
	}
	return out
}

func decodePayload(payload []byte, u *types.Universe) (*Snapshot, int, uint64, error) {
	d := &dec{data: payload}
	nStrs := d.count("string table")
	d.strs = make([]string, 0, nStrs)
	for i := 0; i < nStrs; i++ {
		n := d.count("string")
		if d.err != nil {
			break
		}
		d.strs = append(d.strs, string(d.data[d.pos:d.pos+n]))
		d.pos += n
	}
	p := &progDec{dec: d, u: u}
	prog, join := p.program()
	aliasSnap, apCount, apDigest := p.aliasSection()
	mrSnap := p.modrefSection()
	// Re-intern while the body workers are still decoding: the index is
	// a function of the AP table alone (see ir.InternAPList), so it
	// never reads an instruction.
	var idx *ir.APIndex
	if d.err == nil {
		idx = ir.InternAPList(p.aps)
	}
	if err := join(); err != nil && d.err == nil {
		d.err = err
	}
	if d.err != nil {
		return nil, 0, 0, d.err
	}
	if d.pos != len(d.data) {
		return nil, 0, 0, fmt.Errorf("artifact: %d trailing bytes after payload", len(d.data)-d.pos)
	}
	for _, proc := range p.procs {
		prog.ProcByName[proc.Name] = proc
	}
	return &Snapshot{Prog: prog, APList: p.aps, Index: idx, Alias: aliasSnap, ModRef: mrSnap}, apCount, apDigest, nil
}

type progDec struct {
	*dec
	u     *types.Universe
	vars  []*ir.Var
	aps   []*ir.AP
	procs []*ir.Proc
	// ops is the body decoder's operand slab: one allocation per
	// procedure, carved into each instruction's Args slice. nil outside
	// a body chunk (the mask rejects Args there anyway).
	ops []ir.Operand
}

// typ resolves a shifted type ID. Universe.ByID indexes without a
// bounds check, so every ID is validated here before it gets near it.
func (p *progDec) typ() types.Type {
	id := p.dec.u()
	if p.err != nil || id == 0 {
		return nil
	}
	if id-1 >= uint64(p.u.NumTypes()) {
		p.fail("type ID %d out of range (universe has %d types)", id-1, p.u.NumTypes())
		return nil
	}
	return p.u.ByID(int(id - 1))
}

func (p *progDec) obj() *types.Object {
	t := p.typ()
	if t == nil {
		return nil
	}
	o, ok := t.(*types.Object)
	if !ok {
		p.fail("type %s referenced where an object type is required", t)
		return nil
	}
	return o
}

func (p *progDec) varRef() *ir.Var {
	ix := p.dec.u()
	if p.err != nil || ix == 0 {
		return nil
	}
	if ix-1 >= uint64(len(p.vars)) {
		p.fail("variable reference %d out of range", ix-1)
		return nil
	}
	return p.vars[ix-1]
}

// varDef decodes one variable definition into v, a slot of its table's
// preallocated slab (one allocation per table instead of one per
// variable; the slab slots keep the distinct pointer identities the
// program graph needs).
func (p *progDec) varDef(v *ir.Var, kind ir.VarKind) *ir.Var {
	v.Name = p.str()
	v.Type = p.typ()
	v.Kind = kind
	k := p.dec.u()
	if ir.VarKind(k) != kind {
		p.fail("variable %s declared as kind %d in a kind-%d table", v.Name, k, kind)
	}
	v.ByRef = p.b()
	v.Slot = int(p.i())
	p.vars = append(p.vars, v)
	return v
}

func (p *progDec) operand() ir.Operand {
	var op ir.Operand
	op.Kind = ir.OperandKind(p.dec.u())
	switch op.Kind {
	case ir.NoOperand:
	case ir.ConstOp:
		op.Const.Kind = ir.ConstKind(p.dec.u())
		op.Const.Int = p.i()
		op.Const.Text = p.str()
	case ir.RegOp:
		op.Reg = ir.Reg(p.i())
	case ir.VarOp:
		op.Var = p.varRef()
	default:
		p.fail("unknown operand kind %d", op.Kind)
	}
	return op
}

// program decodes the program section. The returned join function
// completes the concurrent instruction-body decode (a no-op closure
// when the section failed before the bodies); the caller must invoke
// it — and check its error — before using any procedure's blocks.
func (p *progDec) program() (*ir.Program, func() error) {
	noBodies := func() error { return nil }
	if nt := p.dec.u(); nt != uint64(p.u.NumTypes()) {
		p.fail("program was lowered against %d types, universe has %d", nt, p.u.NumTypes())
	}
	prog := &ir.Program{
		Name:               p.str(),
		Universe:           p.u,
		ProcByName:         make(map[string]*ir.Proc),
		AddressTakenFields: make(map[ir.FieldKey]bool),
		AddressTakenElems:  make(map[int]bool),
		AddressTakenVars:   make(map[*ir.Var]bool),
		ByRefFormalTypes:   make(map[int]bool),
	}
	nGlobals := p.count("global")
	gslab := make([]ir.Var, nGlobals)
	p.vars = make([]*ir.Var, 0, nGlobals+1024)
	for i := 0; i < nGlobals; i++ {
		prog.Globals = append(prog.Globals, p.varDef(&gslab[i], ir.GlobalVar))
	}
	nProcs := p.count("procedure")
	p.procs = make([]*ir.Proc, 0, nProcs)
	pslab := make([]ir.Proc, nProcs)
	for i := 0; i < nProcs; i++ {
		proc := &pslab[i]
		proc.Name = p.str()
		proc.MethodOf = p.obj()
		proc.Result = p.typ()
		proc.NumRegs = int(p.i())
		nParams := p.count("parameter")
		vslab := make([]ir.Var, nParams)
		for j := 0; j < nParams; j++ {
			proc.Params = append(proc.Params, p.varDef(&vslab[j], ir.ParamVar))
		}
		nLocals := p.count("local")
		vslab = make([]ir.Var, nLocals)
		for j := 0; j < nLocals; j++ {
			proc.Locals = append(proc.Locals, p.varDef(&vslab[j], ir.LocalVar))
		}
		p.procs = append(p.procs, proc)
		if p.err != nil {
			return prog, noBodies
		}
	}
	prog.Procs = p.procs

	nAPs := p.count("access path")
	p.aps = make([]*ir.AP, 0, nAPs)
	apslab := make([]ir.AP, nAPs)
	for i := 0; i < nAPs; i++ {
		ap := &apslab[i]
		ap.Root = p.varRef()
		if ap.Root == nil && p.err == nil {
			p.fail("access path %d has no root", i)
		}
		nSels := p.count("selector")
		if nSels > 0 {
			ap.Sels = make([]ir.APSel, nSels)
			for j := range ap.Sels {
				ap.Sels[j] = ir.APSel{
					Kind:  ir.SelKind(p.dec.u()),
					Field: p.str(),
					Index: p.operand(),
					Type:  p.typ(),
				}
			}
		}
		p.aps = append(p.aps, ap)
		if p.err != nil {
			return prog, noBodies
		}
	}

	// Bodies: slice each procedure's length-prefixed chunk, then decode
	// the chunks concurrently. Every table a body references (strings,
	// variables, access paths, the universe) is complete and read-only
	// by now, and each worker writes only its own procedure, so the
	// result is identical whatever the worker count. The remaining
	// sections sit after the chunks, so the caller keeps decoding them
	// (and re-interns the AP table) while the workers run; join settles
	// the bodies.
	chunks := make([][]byte, len(p.procs))
	for i := range p.procs {
		n := p.count("procedure body")
		if p.err != nil {
			return prog, noBodies
		}
		chunks[i] = p.data[p.pos : p.pos+n]
		p.pos += n
	}
	errs := make([]error, len(p.procs))
	// Leave one P for the caller, which decodes the remaining sections
	// and re-interns the path table while the workers run; a full
	// complement would starve it and serialize the overlap away.
	workers := runtime.GOMAXPROCS(0) - 1
	if workers > len(p.procs) {
		workers = len(p.procs)
	}
	var wg sync.WaitGroup
	if workers <= 1 {
		for i, proc := range p.procs {
			errs[i] = decodeBody(chunks[i], p.strs, p.u, p.vars, p.aps, proc)
		}
	} else {
		var next atomic.Int64
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(p.procs) {
						return
					}
					errs[i] = decodeBody(chunks[i], p.strs, p.u, p.vars, p.aps, p.procs[i])
				}
			}()
		}
	}
	join := func() error {
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	if mi := p.dec.u(); mi != 0 {
		if mi-1 >= uint64(len(p.procs)) {
			p.fail("main procedure index %d out of range", mi-1)
		} else {
			prog.Main = p.procs[mi-1]
		}
	}

	nFields := p.count("address-taken field")
	for i := 0; i < nFields; i++ {
		tid := p.dec.u()
		field := p.str()
		if tid >= uint64(p.u.NumTypes()) {
			p.fail("address-taken field owner type %d out of range", tid)
			break
		}
		prog.AddressTakenFields[ir.FieldKey{TypeID: int(tid), Field: field}] = true
	}
	nElems := p.count("address-taken element type")
	for i := 0; i < nElems; i++ {
		tid := p.dec.u()
		if tid >= uint64(p.u.NumTypes()) {
			p.fail("address-taken element type %d out of range", tid)
			break
		}
		prog.AddressTakenElems[int(tid)] = true
	}
	nVars := p.count("address-taken variable")
	for i := 0; i < nVars; i++ {
		ix := p.dec.u()
		if ix >= uint64(len(p.vars)) {
			p.fail("address-taken variable %d out of range", ix)
			break
		}
		prog.AddressTakenVars[p.vars[ix]] = true
	}
	nMerges := p.count("merge")
	for i := 0; i < nMerges; i++ {
		prog.Merges = append(prog.Merges, ir.Merge{Dst: p.typ(), Src: p.typ()})
	}
	nByRef := p.count("by-ref formal type")
	for i := 0; i < nByRef; i++ {
		tid := p.dec.u()
		if tid >= uint64(p.u.NumTypes()) {
			p.fail("by-ref formal type %d out of range", tid)
			break
		}
		prog.ByRefFormalTypes[int(tid)] = true
	}
	return prog, join
}

// decodeBody decodes one procedure's body chunk into proc: blocks,
// instructions, and the entry reference. The shared tables are read
// only; the chunk must be consumed exactly.
func decodeBody(chunk []byte, strs []string, u *types.Universe, vars []*ir.Var, aps []*ir.AP, proc *ir.Proc) error {
	w := &progDec{
		dec:  &dec{data: chunk, strs: strs},
		u:    u,
		vars: vars,
		aps:  aps,
	}
	nInstrs := w.count("instruction total")
	nOps := w.count("operand total")
	islab := make([]ir.Instr, nInstrs)
	w.ops = make([]ir.Operand, nOps)
	nBlocks := w.count("block")
	bslab := make([]ir.Block, nBlocks)
	for j := 0; j < nBlocks; j++ {
		bslab[j].ID = int(w.i())
		bslab[j].Name = w.str()
		proc.Blocks = append(proc.Blocks, &bslab[j])
	}
	for _, b := range proc.Blocks {
		n := w.count("instruction")
		if w.err != nil {
			return w.err
		}
		if n > len(islab) {
			w.fail("procedure %s blocks carry more instructions than the declared total", proc.Name)
			return w.err
		}
		// Full slice expressions: an append through one block's slice
		// must never bleed into its neighbor's slab region.
		b.Instrs, islab = islab[:n:n], islab[n:]
		for k := range b.Instrs {
			w.instr(&b.Instrs[k], proc.Blocks)
		}
	}
	if ei := w.dec.u(); ei != 0 {
		if ei-1 >= uint64(len(proc.Blocks)) {
			w.fail("procedure %s entry block %d out of range", proc.Name, ei-1)
		} else {
			proc.Entry = proc.Blocks[ei-1]
		}
	}
	if w.err == nil && w.pos != len(w.data) {
		w.fail("%d trailing bytes in procedure %s body", len(w.data)-w.pos, proc.Name)
	}
	if w.err != nil {
		return w.err
	}
	proc.ComputeCFGEdges()
	return nil
}

func (p *progDec) blockRef(blocks []*ir.Block) *ir.Block {
	ix := p.dec.u()
	if p.err != nil || ix == 0 {
		return nil
	}
	if ix-1 >= uint64(len(blocks)) {
		p.fail("block reference %d out of range", ix-1)
		return nil
	}
	return blocks[ix-1]
}

// instr decodes one instruction: the opcode, the field-presence mask,
// then only the fields the mask declares. The caller's zeroed
// instruction slab already holds every absent field's value.
func (p *progDec) instr(in *ir.Instr, blocks []*ir.Block) {
	in.Op = ir.Op(p.dec.u())
	mask := p.dec.u()
	if mask&^uint64(imAll) != 0 {
		p.fail("unknown instruction field mask %#x", mask)
		return
	}
	if mask&imPos != 0 {
		in.Pos.File = p.str()
		in.Pos.Line = int32(p.dec.u())
		in.Pos.Col = int32(p.dec.u())
	}
	if mask&imDst != 0 {
		in.Dst = ir.Reg(p.i())
	}
	if mask&imArgs != 0 {
		nArgs := p.count("argument")
		if nArgs > len(p.ops) {
			p.fail("instruction arguments exceed the procedure's declared operand total")
			return
		}
		if nArgs > 0 {
			in.Args, p.ops = p.ops[:nArgs:nArgs], p.ops[nArgs:]
			for i := range in.Args {
				in.Args[i] = p.operand()
			}
		}
	}
	if mask&imBinOp != 0 {
		in.BinOp = ir.BinOp(p.dec.u())
	}
	if mask&imUnOp != 0 {
		in.UnOp = ir.UnOp(p.dec.u())
	}
	if mask&imVar != 0 {
		in.Var = p.varRef()
	}
	if mask&imField != 0 {
		in.Field = p.str()
	}
	if mask&imBase != 0 {
		in.Base = p.operand()
	}
	if mask&imSel != 0 {
		in.Sel.Kind = ir.SelKind(p.dec.u())
		in.Sel.Field = p.str()
		in.Sel.Index = p.operand()
	}
	if mask&imAP != 0 {
		if ix := p.dec.u(); ix != 0 {
			if ix-1 >= uint64(len(p.aps)) {
				p.fail("access-path reference %d out of range", ix-1)
			} else {
				in.AP = p.aps[ix-1]
			}
		}
	}
	if mask&imType != 0 {
		in.Type = p.typ()
	}
	if mask&imCallee != 0 {
		in.Callee = p.str()
	}
	if mask&imMethod != 0 {
		in.Method = p.str()
	}
	if mask&imRecvType != 0 {
		in.RecvType = p.obj()
	}
	if mask&imByRef != 0 {
		nByRef := p.count("by-ref flag")
		if nByRef > 0 {
			in.ByRef = make([]bool, nByRef)
			for i := range in.ByRef {
				in.ByRef[i] = p.b()
			}
		}
	}
	if mask&imBuiltin != 0 {
		in.Builtin = ir.Builtin(p.dec.u())
	}
	if mask&imSpeculative != 0 {
		in.Speculative = p.b()
	}
	if mask&imTarget != 0 {
		in.Target = p.blockRef(blocks)
	}
	if mask&imThen != 0 {
		in.Then = p.blockRef(blocks)
	}
	if mask&imElse != 0 {
		in.Else = p.blockRef(blocks)
	}
}

func (p *progDec) aliasSection() (*alias.Snapshot, int, uint64) {
	apCount := int(p.dec.u())
	if p.err == nil && p.pos+8 > len(p.data) {
		p.fail("truncated intern-table digest")
	}
	var digest uint64
	if p.err == nil {
		digest = binary.LittleEndian.Uint64(p.data[p.pos:])
		p.pos += 8
	}
	snap := &alias.Snapshot{}
	nRows := p.count("TypeRefs row")
	if nRows > 0 {
		snap.TypeRefs = make([]types.Bitset, nRows)
		for i := range snap.TypeRefs {
			if p.b() {
				snap.TypeRefs[i] = types.Bitset(p.words("TypeRefs word"))
				if snap.TypeRefs[i] == nil {
					snap.TypeRefs[i] = types.Bitset{}
				}
			}
		}
	}
	snap.Cls = p.int32s("class table")
	nCompat := p.count("compat row")
	if nCompat > 0 {
		snap.Compat = make([]types.Bitset, nCompat)
		for i := range snap.Compat {
			snap.Compat[i] = types.Bitset(p.words("compat word"))
		}
	}
	snap.RepIIDs = p.int32s("class representative")
	return snap, apCount, digest
}

func (p *progDec) modrefSection() *modref.Snapshot {
	if !p.b() {
		return nil
	}
	snap := &modref.Snapshot{
		RTA:       p.b(),
		OpenWorld: p.b(),
		ShapeIIDs: p.int32s("shape"),
	}
	nEffects := p.count("summary")
	if nEffects > 0 {
		snap.Effects = make([]modref.EffectsSnap, nEffects)
		for i := range snap.Effects {
			snap.Effects[i] = modref.EffectsSnap{
				Mods:              p.int32s("mod shape"),
				Refs:              p.int32s("ref shape"),
				ModGlobals:        p.int32s("rebound global"),
				WritesThroughLocs: p.b(),
				Top:               p.b(),
			}
		}
	}
	snap.ByProc = p.int32s("summary binding")
	nCallees := p.count("callee list")
	if nCallees > 0 {
		snap.Callees = make([][]int32, nCallees)
		for i := range snap.Callees {
			snap.Callees[i] = p.int32s("callee")
		}
	}
	snap.HasInst = p.b()
	if snap.HasInst {
		snap.Inst = p.words("instantiated-set word")
	}
	snap.HasReachable = p.b()
	if snap.HasReachable {
		snap.Reachable = p.int32s("reachable procedure")
	}
	snap.HasReturnsFresh = p.b()
	if snap.HasReturnsFresh {
		snap.ReturnsFresh = p.int32s("fresh-returning procedure")
	}
	return snap
}

// Sort helpers shared with the encoder.

func sortFieldKeys(keys []ir.FieldKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].TypeID != keys[j].TypeID {
			return keys[i].TypeID < keys[j].TypeID
		}
		return keys[i].Field < keys[j].Field
	})
}

func sortedIntKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k, v := range m {
		if v {
			out = append(out, k)
		}
	}
	sort.Ints(out)
	return out
}

func sortUint64s(v []uint64) {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
}
