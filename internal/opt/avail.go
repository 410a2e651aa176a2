package opt

import (
	"slices"

	"tbaa/internal/alias"
	"tbaa/internal/cfg"
	"tbaa/internal/ir"
	"tbaa/internal/modref"
)

// Avail is the available-load dataflow of one procedure (Section 3.4.1):
// an access path is available at a point when a load or store of the
// same path reaches it on every incoming path (on some path, under the
// may meet) and nothing in between may kill it. It is the one definition
// of redundancy behind RLE's CSE, both of PRE's dataflows and the limit
// study's classification of the loads RLE leaves (package limit).
//
// Classes are syntactic: two paths share a class when ir.AP.Equal holds.
// Dope-vector paths form no class: those loads are implicit in the
// source (the limit study's Encapsulated category), and CSE leaves them
// alone.
//
// An Avail holds nothing beyond its procedure, so procedures may be
// solved concurrently.
type Avail struct {
	// classes are the distinct paths, numbered in first-occurrence
	// p.Blocks order.
	classes []*ir.AP
	// gen[b][i] is the class instruction i of b loads or stores, or -1.
	gen   map[*ir.Block][]int32
	rpo   []*ir.Block
	order map[*ir.Block]int // a reachable block's position in rpo
	kill  killRule
}

// NewAvail numbers p's access-path classes. Kills consult o and the
// call summaries mr. sited makes every kill query carry its statement
// (alias.Site), so flow-sensitive oracles refine it; unsited queries
// use the zero Site, the flow-insensitive answer.
func NewAvail(prog *ir.Program, p *ir.Proc, o alias.Oracle, mr *modref.ModRef, sited bool) *Avail {
	p.ComputeCFGEdges()
	a := &Avail{
		rpo:  cfg.ReversePostorder(p),
		kill: killRule{o: o, mr: mr, at: prog.AddressTakenVars},
	}
	if sited {
		a.kill.p = p
	}
	nInstrs := 0
	for _, b := range p.Blocks {
		nInstrs += len(b.Instrs)
	}
	flat := make([]int32, nInstrs)
	a.gen = make(map[*ir.Block][]int32, len(p.Blocks))
	for _, b := range p.Blocks {
		g := flat[:len(b.Instrs):len(b.Instrs)]
		flat = flat[len(b.Instrs):]
		for i := range b.Instrs {
			g[i] = -1
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpLoad, ir.OpLoadVarField, ir.OpStore, ir.OpStoreVarField:
				if in.AP != nil && !in.AP.IsDope() {
					g[i] = a.classOf(in.AP)
				}
			}
		}
		a.gen[b] = g
	}
	if len(a.classes) == 0 {
		return a
	}
	a.order = make(map[*ir.Block]int, len(a.rpo))
	for k, b := range a.rpo {
		a.order[b] = k
	}
	return a
}

func (a *Avail) classOf(ap *ir.AP) int32 {
	for i, c := range a.classes {
		if c.Equal(ap) {
			return int32(i)
		}
	}
	a.classes = append(a.classes, ap)
	return int32(len(a.classes) - 1)
}

// Meet is how a block combines its predecessors' availability: Must
// keeps what every incoming path has (∩), May what some path has (∪).
type Meet int

const (
	Must Meet = iota
	May
)

// Flow is a converged run of the dataflow: in[k] and out[k] hold the
// classes available on entry to and exit from the block at rpo[k].
type Flow struct {
	a        *Avail
	memKills bool
	in, out  [][]bool
}

// Solve runs the dataflow to its fixpoint, visiting blocks in reverse
// postorder. Without memKills only variable writes kill: stores and
// calls leave every path available.
func (a *Avail) Solve(meet Meet, memKills bool) *Flow {
	n, m := len(a.classes), len(a.rpo)
	f := &Flow{a: a, memKills: memKills, in: make([][]bool, m), out: make([][]bool, m)}
	// Must starts every set but the entry block's full and clears what a
	// predecessor lacks; May starts them empty and sets what one has.
	must := meet == Must
	cells := make([]bool, 2*n*m)
	for k := range a.rpo {
		f.in[k], f.out[k] = cells[:n:n], cells[n:2*n:2*n]
		cells = cells[2*n:]
		top := must && k > 0 // rpo[0] is the entry block
		for i := range f.out[k] {
			f.out[k][i] = top
		}
	}
	out := make([]bool, n)
	for changed := true; changed; {
		changed = false
		for k, b := range a.rpo {
			in, top := f.in[k], must && k > 0
			for i := range in {
				in[i] = top
			}
			for _, pred := range b.Preds {
				if j, ok := a.order[pred]; ok && k > 0 {
					for i, v := range f.out[j] {
						if v != must {
							in[i] = v
						}
					}
				}
			}
			copy(out, in)
			a.transfer(b, out, memKills, nil)
			if !slices.Equal(out, f.out[k]) {
				copy(f.out[k], out)
				changed = true
			}
		}
	}
	return f
}

// Loads replays every reachable block from its converged entry set, in
// reverse postorder, and calls visit at each load of a class with
// whether the class is available just before it.
func (f *Flow) Loads(visit func(b *ir.Block, i int, cls int32, avail bool)) {
	avail := make([]bool, len(f.a.classes))
	for k, b := range f.a.rpo {
		copy(avail, f.in[k])
		f.a.transfer(b, avail, f.memKills, visit)
	}
}

// transfer carries avail through b. A load makes its class available;
// any other instruction first kills what it may overwrite, and a store
// then makes its own path available (store-to-load forwarding). The
// walk covers the instructions the gen table knows: the compensation
// loads PRE inserts before a block's terminator neither generate nor
// kill, and a block split off an edge knows none.
func (a *Avail) transfer(b *ir.Block, avail []bool, memKills bool, visit func(b *ir.Block, i int, cls int32, avail bool)) {
	if len(a.classes) == 0 {
		return
	}
	for i, cls := range a.gen[b] {
		in := &b.Instrs[i]
		if cls >= 0 && (in.Op == ir.OpLoad || in.Op == ir.OpLoadVarField) {
			if visit != nil {
				visit(b, i, cls, avail[cls])
			}
			avail[cls] = true
			continue
		}
		a.kill.apply(in, a.classes, avail, memKills)
		if cls >= 0 {
			avail[cls] = true
		}
	}
}

// killRule decides which access paths an instruction may overwrite or
// redirect. It is shared by the available-load dataflow and by
// loop-invariant load motion.
type killRule struct {
	p  *ir.Proc // the instructions' procedure; nil makes every query use the zero Site
	o  alias.Oracle
	mr *modref.ModRef
	at map[*ir.Var]bool
}

// apply clears avail[i] for every path aps[i] that in may kill. Without
// memKills only variable writes kill.
func (r *killRule) apply(in *ir.Instr, aps []*ir.AP, avail []bool, memKills bool) {
	if !memKills && in.Op != ir.OpSetVar {
		return
	}
	var site alias.Site
	if r.p != nil {
		site = alias.Site{Proc: r.p, Instr: in}
	}
	switch in.Op {
	case ir.OpSetVar:
		for i, ap := range aps {
			if avail[i] && modref.VarWriteKills(ap, in.Var, r.at) {
				avail[i] = false
			}
		}
	case ir.OpStore, ir.OpStoreVarField:
		st := in.AP
		if st == nil {
			clear(avail)
			return
		}
		derefStore := in.Op == ir.OpStore && in.Sel.Kind == ir.SelDeref
		for i, ap := range aps {
			// An available path's root is unchanged since its gen (any
			// write to it kills the path above), so evaluating both paths
			// at the killing statement is exact. StoreKills also catches
			// stores to the path's prefixes, which redirect what it
			// denotes. A store through a location may also write an
			// address-taken variable the path depends on (its root or a
			// subscript).
			if avail[i] && (modref.StoreKills(r.o, ap, site, st, site) ||
				derefStore && modref.LocStoreKills(ap, st.Type().ID(), r.at)) {
				avail[i] = false
			}
		}
	case ir.OpCall, ir.OpMethodCall:
		eff := r.mr.CallEffects(in)
		for i, ap := range aps {
			if avail[i] && modref.MayModify(eff, ap, site, r.o, r.at) {
				avail[i] = false
			}
		}
	}
}

// kills reports whether in may overwrite or redirect ap.
func (r *killRule) kills(in *ir.Instr, ap *ir.AP) bool {
	aps, avail := [1]*ir.AP{ap}, [1]bool{true}
	r.apply(in, aps[:], avail[:], true)
	return !avail[0]
}
