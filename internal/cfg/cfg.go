// Package cfg provides control-flow-graph analyses over IR procedures:
// reverse postorder, dominators, and natural loop detection with
// preheader insertion. The redundant load eliminator builds on these.
package cfg

import (
	"tbaa/internal/ir"
)

// ReversePostorder returns the blocks reachable from entry in reverse
// postorder.
func ReversePostorder(p *ir.Proc) []*ir.Block {
	seen := make(map[*ir.Block]bool, len(p.Blocks))
	var order []*ir.Block
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			dfs(s)
		}
		order = append(order, b)
	}
	dfs(p.Entry)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// Dominators holds immediate-dominator information for a procedure.
type Dominators struct {
	idom  map[*ir.Block]*ir.Block
	order map[*ir.Block]int // reverse postorder index
}

// ComputeDominators runs the Cooper-Harvey-Kennedy iterative algorithm.
func ComputeDominators(p *ir.Proc) *Dominators {
	rpo := ReversePostorder(p)
	d := &Dominators{
		idom:  make(map[*ir.Block]*ir.Block, len(rpo)),
		order: make(map[*ir.Block]int, len(rpo)),
	}
	for i, b := range rpo {
		d.order[b] = i
	}
	d.idom[p.Entry] = p.Entry
	changed := true
	for changed {
		changed = false
		for _, b := range rpo {
			if b == p.Entry {
				continue
			}
			var newIdom *ir.Block
			for _, pred := range b.Preds {
				if d.idom[pred] == nil {
					continue // unreachable or not yet processed
				}
				if newIdom == nil {
					newIdom = pred
				} else {
					newIdom = d.intersect(pred, newIdom)
				}
			}
			if newIdom != nil && d.idom[b] != newIdom {
				d.idom[b] = newIdom
				changed = true
			}
		}
	}
	return d
}

func (d *Dominators) intersect(a, b *ir.Block) *ir.Block {
	for a != b {
		for d.order[a] > d.order[b] {
			a = d.idom[a]
		}
		for d.order[b] > d.order[a] {
			b = d.idom[b]
		}
	}
	return a
}

// Idom returns the immediate dominator of b (entry's is itself).
func (d *Dominators) Idom(b *ir.Block) *ir.Block { return d.idom[b] }

// Dominates reports whether a dominates b (reflexive).
func (d *Dominators) Dominates(a, b *ir.Block) bool {
	for {
		if a == b {
			return true
		}
		next := d.idom[b]
		if next == nil || next == b {
			return false
		}
		b = next
	}
}

// Loop is a natural loop.
type Loop struct {
	Header    *ir.Block
	Blocks    map[*ir.Block]bool
	Latches   []*ir.Block // blocks with back edges to Header
	Preheader *ir.Block   // nil until EnsurePreheader
	Depth     int         // nesting depth (1 = outermost)
	Parent    *Loop
}

// Contains reports whether b is in the loop body (including the header).
func (l *Loop) Contains(b *ir.Block) bool { return l.Blocks[b] }

// FindLoops detects natural loops from back edges (latch → header where
// header dominates latch). Loops sharing a header are merged.
func FindLoops(p *ir.Proc, dom *Dominators) []*Loop {
	byHeader := make(map[*ir.Block]*Loop)
	var loops []*Loop
	for _, b := range p.Blocks {
		for _, s := range b.Succs {
			if dom.Idom(b) == nil || dom.Idom(s) == nil {
				continue // unreachable
			}
			if !dom.Dominates(s, b) {
				continue
			}
			l := byHeader[s]
			if l == nil {
				l = &Loop{Header: s, Blocks: map[*ir.Block]bool{s: true}}
				byHeader[s] = l
				loops = append(loops, l)
			}
			l.Latches = append(l.Latches, b)
			// Collect body: reverse reachability from the latch without
			// passing through the header.
			var stack []*ir.Block
			if !l.Blocks[b] {
				l.Blocks[b] = true
				stack = append(stack, b)
			}
			for len(stack) > 0 {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, pred := range n.Preds {
					if !l.Blocks[pred] {
						l.Blocks[pred] = true
						stack = append(stack, pred)
					}
				}
			}
		}
	}
	// Nesting: loop A is inside B if A's header is in B's blocks (A != B).
	for _, a := range loops {
		for _, b := range loops {
			if a != b && b.Blocks[a.Header] {
				if a.Parent == nil || b.Blocks[a.Parent.Header] {
					a.Parent = b
				}
			}
		}
	}
	for _, l := range loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	return loops
}

// EnsurePreheader guarantees the loop has a unique preheader block:
// a block outside the loop whose only successor is the header, and which
// is the only non-latch predecessor of the header. It rewrites edges and
// recomputes CFG edges if a new block is inserted.
func EnsurePreheader(p *ir.Proc, l *Loop) *ir.Block {
	if l.Preheader != nil {
		return l.Preheader
	}
	var outside []*ir.Block
	for _, pred := range l.Header.Preds {
		if !l.Blocks[pred] {
			outside = append(outside, pred)
		}
	}
	if len(outside) == 1 {
		b := outside[0]
		if len(b.Succs) == 1 && len(b.Instrs) > 0 {
			l.Preheader = b
			return b
		}
	}
	// Insert a fresh preheader.
	ph := &ir.Block{ID: len(p.Blocks), Name: "preheader"}
	p.Blocks = append(p.Blocks, ph)
	ph.Instrs = append(ph.Instrs, ir.Instr{Op: ir.OpJump, Target: l.Header})
	for _, pred := range outside {
		t := &pred.Instrs[len(pred.Instrs)-1]
		switch t.Op {
		case ir.OpJump:
			if t.Target == l.Header {
				t.Target = ph
			}
		case ir.OpBranch:
			if t.Then == l.Header {
				t.Then = ph
			}
			if t.Else == l.Header {
				t.Else = ph
			}
		}
	}
	if p.Entry == l.Header {
		p.Entry = ph
	}
	p.ComputeCFGEdges()
	l.Preheader = ph
	return ph
}

// ExitBlocks returns the blocks outside the loop that are successors of
// loop blocks.
func (l *Loop) ExitBlocks() []*ir.Block {
	var exits []*ir.Block
	seen := map[*ir.Block]bool{}
	for b := range l.Blocks {
		for _, s := range b.Succs {
			if !l.Blocks[s] && !seen[s] {
				seen[s] = true
				exits = append(exits, s)
			}
		}
	}
	return exits
}
