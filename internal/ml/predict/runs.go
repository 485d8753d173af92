package predict

import (
	"math"
	"math/bits"
	"sort"

	"repro/internal/parallel"
)

// runBlockRows is the differential kernel's worker block. Each block
// starts with a full walk of every tree, so a block must be long
// enough for that restart to vanish against the rows that follow it.
const runBlockRows = 4096

// runTables are the differential kernel's threshold tables, built
// once per compiled ensemble on its first ordered call.
//
// For each feature f some split reads, T_f is the ascending list of
// the distinct split thresholds on f across the whole ensemble, and a
// value v has rank(v) = the number of t in T_f with !(v <= t): the
// thresholds it falls right of. NaN falls right of every threshold, so
// its rank is |T_f|, the same as a value above them all. Two values of
// equal rank take the same branch at every split on f, so a tree's
// leaf can change between two rows only if some feature's rank moved
// across a threshold of a split on the tree's current path.
type runTables struct {
	// feats lists the features with at least one split, ascending.
	feats []int32
	// bounds holds, for feats[j], the padded list NaN, T_f..., +Inf
	// starting at bounds[off[j]] (so off[j+1]-off[j] = |T_f|+2). A
	// value of rank r lies in the r-th gap: !(v <= bounds[off[j]+r])
	// && v <= bounds[off[j]+r+1]. The NaN pad makes the first test
	// hold for every value, -Inf included; the +Inf pad fails only for
	// NaN.
	bounds []float64
	off    []int32
	// splits[start[p]:start[p+1]] are the split nodes, with their
	// trees, whose threshold is bounds[p] (none at the pads). Slots are
	// laid out in bounds order, so the splits whose outcome a rank move
	// from r to r' flips are one contiguous run:
	// splits[start[off[j]+1+min(r,r')]:start[off[j]+1+max(r,r')]].
	splits []slotSplit
	start  []int32
	// pathOff[t] is where tree t's path starts in a block's path
	// buffer; a path holds at most depths[t] split nodes.
	pathOff []int32
}

// slotSplit is one split node of a threshold slot: its arena index and
// its tree.
type slotSplit struct{ node, tree int32 }

// runs returns the ensemble's threshold tables, building them on the
// first call.
func (e *Ensemble) runs() *runTables {
	e.runsOnce.Do(func() { e.runTab = e.buildRuns() })
	return e.runTab
}

// buildRuns collects every split node of the arena and lays the tables
// out. A NaN threshold is left out: no value is <= NaN, so such a split
// goes right for every row and never changes a leaf. A zero threshold
// is stored as +0, so -0 and +0, which every compare treats alike,
// share one slot.
func (e *Ensemble) buildRuns() *runTables {
	type split struct {
		feature    int32
		thr        float64
		node, tree int32
	}
	var splits []split
	for t, root := range e.roots {
		end := len(e.feature)
		if t+1 < len(e.roots) {
			end = int(e.roots[t+1])
		}
		for i := int(root); i < end; i++ {
			thr := e.threshold[i]
			if e.kids[2*i] == int32(i) || math.IsNaN(thr) {
				continue
			}
			if thr == 0 {
				thr = 0
			}
			splits = append(splits, split{e.feature[i], thr, int32(i), int32(t)})
		}
	}
	sort.Slice(splits, func(a, b int) bool {
		sa, sb := splits[a], splits[b]
		if sa.feature != sb.feature {
			return sa.feature < sb.feature
		}
		if sa.thr != sb.thr {
			return sa.thr < sb.thr
		}
		return sa.node < sb.node
	})

	rt := &runTables{}
	// closeFeature appends the +Inf pad of the feature being laid out.
	closeFeature := func() {
		rt.bounds = append(rt.bounds, math.Inf(1))
		rt.start = append(rt.start, int32(len(rt.splits)))
	}
	for k, s := range splits {
		newFeature := k == 0 || s.feature != splits[k-1].feature
		if newFeature {
			if k > 0 {
				closeFeature()
			}
			rt.feats = append(rt.feats, s.feature)
			rt.off = append(rt.off, int32(len(rt.bounds)))
			rt.bounds = append(rt.bounds, math.NaN())
			rt.start = append(rt.start, int32(len(rt.splits)))
		}
		if newFeature || s.thr != splits[k-1].thr {
			rt.bounds = append(rt.bounds, s.thr)
			rt.start = append(rt.start, int32(len(rt.splits)))
		}
		rt.splits = append(rt.splits, slotSplit{s.node, s.tree})
	}
	if len(splits) > 0 {
		closeFeature()
	}
	rt.off = append(rt.off, int32(len(rt.bounds)))
	rt.start = append(rt.start, int32(len(rt.splits)))
	rt.pathOff = make([]int32, len(e.roots)+1)
	for t, d := range e.depths {
		rt.pathOff[t+1] = rt.pathOff[t] + d
	}
	return rt
}

// rank returns the number of thresholds in thr (ascending) that v
// falls right of, |thr| for NaN.
func rank(thr []float64, v float64) int32 {
	lo, hi := 0, len(thr)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if !(v <= thr[m]) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return int32(lo)
}

// PredictProbaRuns scores xs into out like PredictProbaBatch and is
// bit-identical to it, at any worker count and for any row order; only
// its speed depends on the order. It is built for rows that come in
// runs of slowly changing neighbours — a drive's consecutive days, as
// in a sample arena stored drive then day. Each row re-walks only the
// trees whose current path holds a split threshold that some feature
// crossed since the previous row, and takes every other tree's leaf
// from that row; a row that flips no such split reuses the previous
// score outright. Rows are cut into worker blocks of runBlockRows
// (0 = GOMAXPROCS, 1 = serial), and each block's first row walks every
// tree.
//
// Neighbours that share little (a day's rows of different drives)
// re-walk most trees and pay the threshold checks on top; score those
// with PredictProbaBatch.
func (e *Ensemble) PredictProbaRuns(xs [][]float64, out []float64, workers int) {
	if len(xs) != len(out) {
		panicLengths(len(xs), len(out))
	}
	if len(xs) == 0 {
		return
	}
	rt := e.runs()
	blocks := (len(xs) + runBlockRows - 1) / runBlockRows
	_ = parallel.Do(blocks, workers, func(b int) error {
		lo := b * runBlockRows
		hi := lo + runBlockRows
		if hi > len(xs) {
			hi = len(xs)
		}
		e.scoreRuns(rt, xs[lo:hi], out[lo:hi])
		return nil
	})
}

// runState is one block's view of the current row.
type runState struct {
	// leaf[t] is tree t's leaf value.
	leaf []float64
	// ranks[j] is the rank on feats[j], gaps[j] the thresholds either
	// side of it (bounds[off[j]+ranks[j]] and the next).
	ranks []int32
	gaps  []gap
	// path[pathOff[t]:pathOff[t]+pathLen[t]] are the split nodes of
	// tree t's path, and onPath the same nodes as an arena bitset.
	path    []int32
	pathLen []int32
	onPath  []uint64
	// dirty marks the trees to re-walk.
	dirty []uint64
}

type gap struct{ lo, hi float64 }

// scoreRuns is the differential kernel on one block. A tree is
// re-walked only when a crossed threshold belongs to a split on its
// current path: a tree whose path splits all fall the same way for the
// new row ends in the same leaf. A changed row re-sums every tree's
// leaf in tree order with the direct kernel's arithmetic (init, then
// += mul·leaf, then the final transform), which is what keeps the
// scores bit-identical: nothing is ever subtracted out of a sum.
func (e *Ensemble) scoreRuns(rt *runTables, xs [][]float64, out []float64) {
	init, mul := e.accumulation()
	nTrees := len(e.roots)
	st := &runState{
		leaf:    make([]float64, nTrees),
		ranks:   make([]int32, len(rt.feats)),
		gaps:    make([]gap, len(rt.feats)),
		path:    make([]int32, rt.pathOff[nTrees]),
		pathLen: make([]int32, nTrees),
		onPath:  make([]uint64, (len(e.feature)+63)/64),
		dirty:   make([]uint64, (nTrees+63)/64),
	}
	feats, bounds, off := rt.feats, rt.bounds, rt.off
	splits, start := rt.splits, rt.start
	gaps, ranks, onPath, dirty := st.gaps, st.ranks, st.onPath, st.dirty

	for r, x := range xs {
		if r == 0 {
			for j, f := range feats {
				nr := rank(bounds[off[j]+1:off[j+1]-1], x[f])
				ranks[j] = nr
				gaps[j] = gap{bounds[off[j]+nr], bounds[off[j]+nr+1]}
			}
			for t := range st.leaf {
				e.walk(rt, st, t, x)
			}
		} else {
			changed := false
			for j, f := range feats {
				v := x[f]
				g := &gaps[j]
				if !(v <= g.lo) && v <= g.hi {
					continue
				}
				// Step the rank to v's gap from the old one: values
				// drift, so the new gap is usually next door, and the
				// step never costs more than the marking below.
				o, r0 := off[j], ranks[j]
				lo, hi := r0, r0
				if v <= g.lo {
					for lo--; v <= bounds[o+lo]; lo-- { // the NaN pad stops it
					}
				} else {
					top := off[j+1] - o - 2
					if hi == top {
						continue // NaN, already in the top gap
					}
					for hi++; hi < top && !(v <= bounds[o+hi+1]); hi++ {
					}
				}
				nr := lo + hi - r0
				ranks[j] = nr
				*g = gap{bounds[o+nr], bounds[o+nr+1]}
				for _, sp := range splits[start[o+1+lo]:start[o+1+hi]] {
					if onPath[sp.node>>6]&(1<<(sp.node&63)) != 0 {
						dirty[sp.tree>>6] |= 1 << (sp.tree & 63)
						changed = true
					}
				}
			}
			if !changed {
				out[r] = out[r-1]
				continue
			}
			for w, word := range dirty {
				if word == 0 {
					continue
				}
				dirty[w] = 0
				for ; word != 0; word &= word - 1 {
					e.walk(rt, st, w<<6+bits.TrailingZeros64(word), x)
				}
			}
		}
		a := init
		for _, v := range st.leaf {
			a += mul * v
		}
		out[r] = e.final(a)
	}
}

// walk walks tree t's true path for x, over the packed mirror when
// there is one, else the flat arrays, and stores its leaf value and
// its split nodes in st in place of the old path's.
func (e *Ensemble) walk(rt *runTables, st *runState, t int, x []float64) {
	path, onPath := st.path[rt.pathOff[t]:rt.pathOff[t+1]], st.onPath
	for _, k := range path[:st.pathLen[t]] {
		onPath[k>>6] &^= 1 << (k & 63)
	}
	d := 0
	i := e.roots[t]
	if nodes := e.aos; nodes != nil {
		n := &nodes[i]
		for n.left != i {
			path[d] = i
			d++
			onPath[i>>6] |= 1 << (i & 63)
			if x[n.feature] <= n.threshold {
				i = n.left
			} else {
				i = n.right
			}
			n = &nodes[i]
		}
		st.leaf[t] = n.value
	} else {
		kids := e.kids
		for l := kids[2*i]; l != i; l = kids[2*i] {
			path[d] = i
			d++
			onPath[i>>6] |= 1 << (i & 63)
			if x[e.feature[i]] <= e.threshold[i] {
				i = l
			} else {
				i = kids[2*i+1]
			}
		}
		st.leaf[t] = e.value[i]
	}
	st.pathLen[t] = int32(d)
}
