package predict

import (
	"math"
	"slices"
)

// runTables are the differential kernel's threshold tables, built
// once per compiled ensemble on its first NewRun and shared by every
// run of it.
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
	// starting at bounds[off[j]] (so off[j+1]-off[j] = |T_f|+2), and
	// one more NaN at the very end. A value of rank r lies in the r-th
	// gap: !(v <= bounds[off[j]+r]) && v <= bounds[off[j]+r+1]. The
	// NaN pad makes the first test hold for every value, -Inf
	// included; the +Inf pad fails only for NaN.
	bounds []float64
	off    []int32
	// splits[start[p]:start[p+1]] are the split nodes whose threshold
	// is bounds[p] (none at the pads). Slots are laid out in bounds
	// order, so the splits whose outcome a move from the gap above
	// bounds[p] to the gap above bounds[p'] flips are one contiguous
	// run: splits[start[min(p,p')+1]:start[max(p,p')+1]].
	splits []slotSplit
	start  []int32
	// enter numbers the arena's reachable nodes in depth-first
	// preorder, tree by tree, and value[enter[i]] is node i's leaf
	// value. A run keeps each tree's leaf by its number: a split's
	// subtree is the preorder interval [enter, enter+size), so the
	// split lies on the path to the leaf numbered p exactly when p
	// falls inside that interval.
	enter []int32
	value []float64
}

// slotSplit is one split node of a threshold slot: its tree and its
// subtree's preorder interval [enter, enter+size).
type slotSplit struct{ tree, enter, size int32 }

// runs returns the ensemble's threshold tables, building them on the
// first call.
func (e *Ensemble) runs() *runTables {
	e.runsOnce.Do(func() { e.runTab = e.buildRuns() })
	return e.runTab
}

// buildRuns numbers every tree's reachable nodes in preorder, collects
// their splits and lays the tables out. A NaN threshold is left out: no
// value is <= NaN, so such a split goes right for every row and never
// changes a leaf. A zero threshold is stored as +0, so -0 and +0, which
// every compare treats alike, share one slot.
func (e *Ensemble) buildRuns() *runTables {
	type split struct {
		feature int32
		thr     float64
		node    int32
		slot    slotSplit
	}
	splits := make([]split, 0, len(e.feature)/2)
	enter := make([]int32, len(e.feature))
	value := make([]float64, 0, len(e.feature))
	next := int32(0)
	// number visits tree t's subtree at node i in preorder, so the
	// subtree's nodes take the consecutive numbers [enter[i], next).
	var number func(t, i int32)
	number = func(t, i int32) {
		enter[i] = next
		next++
		if e.kids[2*i] == i {
			value = append(value, e.value[i])
			return
		}
		value = append(value, 0)
		k := -1
		if thr := e.threshold[i]; !math.IsNaN(thr) {
			if thr == 0 {
				thr = 0
			}
			k = len(splits)
			splits = append(splits, split{e.feature[i], thr, i, slotSplit{t, enter[i], 0}})
		}
		number(t, e.kids[2*i])
		number(t, e.kids[2*i+1])
		if k >= 0 {
			splits[k].slot.size = next - enter[i]
		}
	}
	for t, root := range e.roots {
		number(int32(t), root)
	}
	slices.SortFunc(splits, func(a, b split) int {
		switch {
		case a.feature != b.feature:
			return int(a.feature - b.feature)
		case a.thr < b.thr:
			return -1
		case a.thr > b.thr:
			return 1
		}
		return int(a.node - b.node)
	})

	rt := &runTables{enter: enter, value: value}
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
		rt.splits = append(rt.splits, s.slot)
	}
	if len(splits) > 0 {
		closeFeature()
	}
	rt.off = append(rt.off, int32(len(rt.bounds)))
	rt.start = append(rt.start, int32(len(rt.splits)))
	// A trailing NaN pad, so the +Inf pad of the last feature has a
	// next bound too: (+Inf, NaN] is an empty gap, a run's mark for a
	// feature not ranked yet.
	rt.bounds = append(rt.bounds, math.NaN())
	return rt
}

// rank returns the number of thresholds in thr (ascending, non-empty)
// that v falls right of, |thr| for NaN. The search halves a window
// with a conditional move instead of a branch: a cold row ranks every
// split feature, and a branchy search would mispredict half its steps.
func rank(thr []float64, v float64) int32 {
	base, n := 0, len(thr)
	for n > 1 {
		half := n >> 1
		base += half & -right(v, thr[base+half-1])
		n -= half
	}
	return int32(base + right(v, thr[base]))
}

// right is 1 when v falls right of threshold t, else 0.
func right(v, t float64) int {
	if !(v <= t) {
		return 1
	}
	return 0
}

// Run is the differential kernel's resumable state for one sequence
// of rows — one drive's consecutive days, in a drive-ordered arena or
// across a scorer's daily batches. Score returns exactly what
// PredictProbaBatch would for each row, whatever rows came before it;
// only its speed depends on how little the row moved since the last
// one. Most features barely move from one day to the next, so a row
// re-walks only the trees whose current path holds a split threshold
// that some feature crossed, keeps every other tree's leaf, and reuses
// the previous score outright when no such split flipped.
//
// The state is one leaf per tree (4 B) and, per split feature, a gap
// index (4 B) and the first row's value (8 B), plus a constant, so a
// scorer can keep a run per served drive. A Run is not safe for
// concurrent use; runs of one ensemble share its read-only tables and
// may score concurrently.
type Run struct {
	e  *Ensemble
	rt *runTables
	// leaf[t] is the preorder number of tree t's leaf for the last
	// row, complemented (negative) while a crossed split marks it for
	// a re-walk. gap[j] locates the last row's value on feats[j]: it
	// lies in (bounds[gap[j]], bounds[gap[j]+1]], so gap[j]-off[j] is
	// its rank. A feature whose value has not moved since the first
	// row is not ranked yet: its gap[j] is off[j+1]-1, the +Inf pad,
	// whose gap test fails for every value, and first[j] holds the
	// first row's value to rank once it moves.
	leaf, gap []int32
	first     []float64
	score     float64
	warm      bool
}

// NewRun returns a run with no row scored yet; its first row walks
// every tree. The threshold tables are built on the ensemble's first
// call.
func (e *Ensemble) NewRun() *Run {
	rt := e.runs()
	nt := len(e.roots)
	state := make([]int32, nt+len(rt.feats))
	return &Run{e: e, rt: rt, leaf: state[:nt:nt], gap: state[nt:], first: make([]float64, len(rt.feats))}
}

// Score scores x, the run's next row. A changed row re-sums every
// tree's leaf in tree order with the direct kernel's arithmetic (init,
// then += mul·leaf, then the final transform), which is what keeps the
// score bit-identical to PredictProbaBatch for any previous row:
// nothing is ever subtracted out of a sum.
//
// The first row costs about what the direct kernel's walk does: it
// walks every tree and only notes each split feature's value. A
// feature is ranked on the first later row that moves it, so a feature
// that never moves is never ranked.
func (r *Run) Score(x []float64) float64 {
	rt, leaf, gaps := r.rt, r.leaf, r.gap
	feats, bounds, off := rt.feats, rt.bounds, rt.off
	if !r.warm {
		for j, f := range feats {
			r.first[j] = x[f]
			gaps[j] = off[j+1] - 1
		}
		for t := range leaf {
			leaf[t] = -1
		}
		r.warm = true
		return r.resum(x)
	}
	splits, start := rt.splits, rt.start
	changed := false
	for j, f := range feats {
		v := x[f]
		p0 := gaps[j]
		if !(v <= bounds[p0]) && v <= bounds[p0+1] {
			continue
		}
		if p0 == off[j+1]-1 {
			// Not ranked yet: rank the first row's value, unless this
			// row repeats it.
			u := r.first[j]
			if v == u {
				continue
			}
			p0 = off[j] + rank(bounds[off[j]+1:off[j+1]-1], u)
			gaps[j] = p0
			if !(v <= bounds[p0]) && v <= bounds[p0+1] {
				continue
			}
		}
		// Step to v's gap from the old one: values drift, so the new
		// gap is usually next door, and the step never costs more than
		// the marking below.
		lo, hi := p0, p0
		if v <= bounds[p0] {
			for lo--; v <= bounds[lo]; lo-- { // the NaN pad stops it
			}
		} else {
			top := off[j+1] - 2
			if hi == top {
				continue // NaN, already in the top gap
			}
			for hi++; hi < top && !(v <= bounds[hi+1]); hi++ {
			}
		}
		gaps[j] = lo + hi - p0
		// Mark each tree whose current path holds a crossed split: its
		// leaf is inside the split's subtree interval, which one
		// unsigned compare tests (a data-dependent pair of branches
		// would mispredict). A marked leaf is negative, so it never
		// tests inside again.
		for _, sp := range splits[start[lo+1]:start[hi+1]] {
			if p := leaf[sp.tree]; uint32(p-sp.enter) < uint32(sp.size) {
				leaf[sp.tree] = ^p
				changed = true
			}
		}
	}
	if !changed {
		return r.score
	}
	return r.resum(x)
}

// resum re-walks every marked tree's true path for x, over the packed
// mirror when there is one, else the flat arrays, and sums all leaves
// in tree order into the run's new score. A re-walked tree adds its
// leaf's value straight from the walk; the others read it by number.
func (r *Run) resum(x []float64) float64 {
	e, leaf := r.e, r.leaf
	init, mul := e.accumulation()
	enter, value := r.rt.enter, r.rt.value
	a := init
	if nodes := e.aos; nodes != nil {
		for t, p := range leaf {
			if p < 0 {
				i := e.roots[t]
				n := &nodes[i]
				for n.left != i {
					if x[n.feature] <= n.threshold {
						i = n.left
					} else {
						i = n.right
					}
					n = &nodes[i]
				}
				leaf[t] = enter[i]
				a += mul * n.value
				continue
			}
			a += mul * value[p]
		}
	} else {
		kids, feature, threshold := e.kids, e.feature, e.threshold
		for t, p := range leaf {
			if p < 0 {
				i := e.roots[t]
				for c := kids[2*i]; c != i; c = kids[2*i] {
					if x[feature[i]] <= threshold[i] {
						i = c
					} else {
						i = kids[2*i+1]
					}
				}
				leaf[t] = enter[i]
				a += mul * e.value[i]
				continue
			}
			a += mul * value[p]
		}
	}
	r.score = e.final(a)
	return r.score
}
