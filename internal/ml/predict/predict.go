// Package predict implements the flattened batch inference engine for
// the tree ensembles. Training-time tree arenas are laid out for
// growing — one []node per tree, each node a struct of mixed-width
// fields — which is the wrong shape for the steady-state cost of a
// deployed predictor: scoring millions of rows, fleet-wide, every day.
//
// Compile* translate a fitted forest or GBDT into one contiguous
// structure-of-arrays arena (int32 feature ids, float64 thresholds,
// int32 child indexes, float64 leaf values; all trees concatenated,
// with per-tree root offsets), and the batch kernel walks rows in
// cache-sized blocks with trees on the outer loop, so one tree's nodes
// stay hot while a whole block of rows descends it. Blocks fan out
// across goroutines via internal/parallel under the repository's
// Workers convention (0 = GOMAXPROCS, 1 = serial).
//
// Rows that come in runs of one drive's consecutive days — a sample
// arena stored drive then day, or a served drive's daily rows — have a
// second kernel, Run. A run is resumable per-sequence state: most
// features barely move from one day to the next, so it keeps each
// tree's leaf from the previous row and re-walks only the trees whose
// current path holds a split threshold that some feature crossed; a
// row that flips no split on any tree's current path reuses the
// previous score outright. PredictProbaBatch stays the kernel for rows
// in any other order (a day's rows of many drives), where many more
// trees would have to be re-walked.
//
// Scores are bit-exact against the per-row pointer-walking path at any
// worker count, from both kernels: per row, leaf contributions
// accumulate in tree order with exactly the arithmetic the per-row
// path uses (raw sum then one divide for the forest mean; bias plus
// per-tree lr·leaf then one sigmoid for GBDT), and blocking only
// changes which rows are in flight, never the order of additions
// within a row.
package predict

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/ml/tree"
	"repro/internal/parallel"
)

// blockRows is the batch kernel's row-block size. A block's accumulator
// slice (8 B/row) stays resident in L1 while every tree of the ensemble
// streams over it; the value trades accumulator locality against how
// often the ensemble's node arrays are re-streamed.
const blockRows = 512

// directNodes is the arena size below which the kernel walks rows
// outer, trees inner (each row loaded once, every tree's true path
// walked to its leaf) instead of the padded tree-outer block walk. A
// small arena is cache-resident either way, so re-streaming it per row
// costs nothing, while the padded walk would still pay max-depth steps
// per tree — a pure loss on the shallow skewed trees the fleet models
// actually grow. Past this size the node arrays fall out of L2 and the
// tree-outer blocked walk's locality dominates.
const directNodes = 16384

// kind selects the ensemble's accumulation arithmetic.
type kind uint8

const (
	// kindForestMean averages raw leaf probabilities: sum in tree
	// order, one divide by the tree count at the end.
	kindForestMean kind = iota
	// kindGBDTLogit starts at the bias, adds lr·leaf per tree in tree
	// order, and applies the sigmoid once at the end.
	kindGBDTLogit
)

// Ensemble is a compiled, read-only inference form of a tree ensemble.
// All trees live in one structure-of-arrays node arena; children are
// absolute arena indexes. It is safe for concurrent use.
//
// The arena is laid out so a descent step never takes a data-dependent
// branch: children are interleaved (kids[2i], kids[2i+1]) and selected
// with a 0/1 compare outcome, and leaves are compiled as self-loops
// (feature 0, threshold +Inf, both kids pointing back at the leaf) so a
// walk can run for a tree's full depth with a fixed trip count instead
// of testing for a leaf at every step. Landing on a leaf early just
// spins in place — the compare against +Inf keeps selecting the leaf
// itself — and the row still reads the same leaf value the pointer walk
// would.
type Ensemble struct {
	// feature[i] is the split feature of node i; leaves hold 0.
	feature []int32
	// threshold[i] is the split threshold (x[feature] <= threshold
	// goes left); leaves hold +Inf so every row stays put.
	threshold []float64
	// kids holds the children of node i as absolute arena indexes at
	// kids[2i] (left) and kids[2i+1] (right); a leaf's kids are both i.
	kids []int32
	// value[i] is the leaf output, meaningful only for leaves.
	value []float64
	// roots[t] is the arena index of tree t's root.
	roots []int32
	// depths[t] is the maximum leaf depth of tree t — the fixed trip
	// count of a padded walk from roots[t].
	depths []int32
	// aos mirrors the arena as one packed 32-byte node per entry, built
	// only for arenas at or under directNodes: a small ensemble's walk
	// is latency-bound on single steps, and one cache line per node
	// beats four parallel arrays there.
	aos []aosNode

	kind kind
	// bias and rate are the GBDT intercept and learning rate.
	bias, rate float64
	// trees is the forest divisor: the tree count as a float64.
	trees float64
	// width is the minimum feature-vector length the arena can consume
	// (max referenced feature id + 1).
	width int

	// runTab holds the differential kernel's threshold tables, built
	// on the first NewRun call so compiling stays as cheap as before
	// for callers that never score ordered rows.
	runsOnce sync.Once
	runTab   *runTables
}

// CompileForest flattens a random forest's exported trees into a batch
// inference arena whose PredictProbaBatch reproduces the mean of the
// trees' leaf probabilities bit for bit.
func CompileForest(trees []tree.Exported) (*Ensemble, error) {
	e := &Ensemble{kind: kindForestMean}
	if err := e.append(trees); err != nil {
		return nil, err
	}
	e.trees = float64(len(trees))
	return e, nil
}

// CompileGBDT flattens a boosted ensemble's exported regression trees
// into a batch inference arena whose PredictProbaBatch reproduces
// sigmoid(bias + Σ lr·leaf) bit for bit. An empty tree list is valid
// (a bias-only model).
func CompileGBDT(trees []tree.Exported, bias, learningRate float64) (*Ensemble, error) {
	if learningRate <= 0 {
		return nil, fmt.Errorf("predict: non-positive learning rate %g", learningRate)
	}
	e := &Ensemble{kind: kindGBDTLogit, bias: bias, rate: learningRate}
	if err := e.append(trees); err != nil {
		return nil, err
	}
	return e, nil
}

// append concatenates each tree's nodes onto the arena, rebasing child
// indexes to absolute arena positions and validating the node graph the
// same way tree.Import* does (children in range, no self-loops, no
// cycles). Leaves are rewritten into the self-looping padded form the
// kernel walks (see the Ensemble doc).
func (e *Ensemble) append(trees []tree.Exported) error {
	var total int
	for _, t := range trees {
		total += len(t.Nodes)
	}
	e.feature = make([]int32, 0, total)
	e.threshold = make([]float64, 0, total)
	e.kids = make([]int32, 0, 2*total)
	e.value = make([]float64, 0, total)
	e.roots = make([]int32, 0, len(trees))
	e.depths = make([]int32, 0, len(trees))

	for ti, t := range trees {
		if len(t.Nodes) == 0 {
			return fmt.Errorf("predict: tree %d is empty", ti)
		}
		base := len(e.feature)
		e.roots = append(e.roots, int32(base))
		for ni, n := range t.Nodes {
			if n.Feature >= 0 {
				if n.Left < 0 || n.Left >= len(t.Nodes) || n.Right < 0 || n.Right >= len(t.Nodes) {
					return fmt.Errorf("predict: tree %d node %d has child out of range", ti, ni)
				}
				if n.Left == ni || n.Right == ni {
					return fmt.Errorf("predict: tree %d node %d is its own child", ti, ni)
				}
				if n.Feature+1 > e.width {
					e.width = n.Feature + 1
				}
				e.feature = append(e.feature, int32(n.Feature))
				e.threshold = append(e.threshold, n.Threshold)
				e.kids = append(e.kids, int32(base+n.Left), int32(base+n.Right))
			} else {
				e.feature = append(e.feature, 0)
				e.threshold = append(e.threshold, math.Inf(1))
				e.kids = append(e.kids, int32(base+ni), int32(base+ni))
			}
			e.value = append(e.value, n.Value)
		}
		d, err := maxLeafDepth(t.Nodes)
		if err != nil {
			return fmt.Errorf("predict: tree %d: %w", ti, err)
		}
		e.depths = append(e.depths, d)
	}
	if len(e.feature) <= directNodes {
		e.buildAOS()
	}
	return nil
}

// aosNode is the packed per-node form of the small-arena mirror. A
// leaf's children both point at the leaf itself, same as kids.
type aosNode struct {
	feature     int32
	left, right int32
	_           int32 // pad to 8-byte alignment
	threshold   float64
	value       float64
}

// buildAOS fills the small-arena mirror from the flat arrays.
func (e *Ensemble) buildAOS() {
	e.aos = make([]aosNode, len(e.feature))
	for i := range e.aos {
		e.aos[i] = aosNode{
			feature:   e.feature[i],
			left:      e.kids[2*i],
			right:     e.kids[2*i+1],
			threshold: e.threshold[i],
			value:     e.value[i],
		}
	}
}

// maxLeafDepth walks a tree's reachable nodes from the root and returns
// the deepest leaf. A well-formed binary tree pops each node at most
// once; exceeding that bound means the child graph has a cycle or a
// shared child, which the padded kernel (and the pointer walk) cannot
// terminate on.
func maxLeafDepth(nodes []tree.ExportedNode) (int32, error) {
	type frame struct{ node, depth int32 }
	stack := []frame{{0, 0}}
	var maxd int32
	pops := 0
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if pops++; pops > len(nodes) {
			return 0, fmt.Errorf("child graph is not a tree")
		}
		n := nodes[f.node]
		if n.Feature < 0 {
			if f.depth > maxd {
				maxd = f.depth
			}
			continue
		}
		stack = append(stack, frame{int32(n.Left), f.depth + 1}, frame{int32(n.Right), f.depth + 1})
	}
	return maxd, nil
}

// Nodes returns the total node count of the arena.
func (e *Ensemble) Nodes() int { return len(e.feature) }

// PredictProba implements ml.Classifier on the flattened arena, for
// callers that hold only the compiled form.
func (e *Ensemble) PredictProba(x []float64) float64 {
	var out [1]float64
	e.scoreBlock([][]float64{x}, out[:])
	return out[0]
}

// PredictProbaBatch scores xs into out (len(out) must equal len(xs)),
// fanning row blocks across workers (0 = GOMAXPROCS, 1 = serial).
// Scores are identical at any worker count and bit-exact against the
// ensemble's per-row prediction path.
func (e *Ensemble) PredictProbaBatch(xs [][]float64, out []float64, workers int) {
	if len(xs) != len(out) {
		panicLengths(len(xs), len(out))
	}
	if len(xs) == 0 {
		return
	}
	blocks := (len(xs) + blockRows - 1) / blockRows
	// Each block owns a disjoint slice of out, so the fan-out is
	// write-disjoint and needs no synchronisation beyond Do's join.
	_ = parallel.Do(blocks, workers, func(b int) error {
		lo := b * blockRows
		hi := lo + blockRows
		if hi > len(xs) {
			hi = len(xs)
		}
		e.scoreBlock(xs[lo:hi], out[lo:hi])
		return nil
	})
}

func panicLengths(rows, outs int) {
	panic(fmt.Sprintf("predict: %d rows but %d outputs", rows, outs))
}

// accumulation returns the start value and the per-leaf multiplier
// that fold the two accumulation rules into one kernel: the forest
// adds raw leaf values (mul = 1, bit-exact — multiplying a float by 1
// is the identity), GBDT adds rate-scaled ones to its bias.
func (e *Ensemble) accumulation() (init, mul float64) {
	if e.kind == kindGBDTLogit {
		return e.bias, e.rate
	}
	return 0, 1
}

// scoreBlock accumulates every tree's contribution for one row block:
// trees outer, rows inner, so a single tree's node arrays stay cached
// while the whole block descends it.
//
// The inner walk is branch-free: each step selects a child with the 0/1
// outcome of the split compare (kids[2i+b], a flag-set instruction
// rather than a jump), and the self-looping leaf encoding lets four
// interleaved rows run a tree's full depth with one fixed trip count —
// no per-step leaf test, no data-dependent branches, so out-of-order
// execution keeps four dependent-load chains in flight at once.
//
// The select keeps the pointer walk's exact NaN semantics: b starts at
// 1 (right) and is cleared only when x[f] <= threshold, so an
// unordered compare falls right exactly like the per-row path's
// "x[f] <= threshold goes left" test.
func (e *Ensemble) scoreBlock(xs [][]float64, out []float64) {
	acc := out
	init, mul := e.accumulation()
	for r := range acc {
		acc[r] = init
	}
	feature, threshold := e.feature, e.threshold
	kids, value := e.kids, e.value
	if e.aos != nil {
		// Small cache-resident arena: rows outer, trees inner, walking
		// each true path to its leaf (a self-pointing child marks it)
		// over the packed one-line-per-node mirror, with the select
		// left as a predicted branch. Same compares, same accumulation
		// order — bit-exact with the padded walk and the per-row path.
		nodes := e.aos
		for r, x := range xs {
			a := acc[r]
			for _, root := range e.roots {
				i := root
				n := &nodes[i]
				for n.left != i {
					if x[n.feature] <= n.threshold {
						i = n.left
					} else {
						i = n.right
					}
					n = &nodes[i]
				}
				a += mul * n.value
			}
			acc[r] = a
		}
		e.finish(acc)
		return
	}
	for t, root := range e.roots {
		d := int(e.depths[t])
		n := len(xs)
		r := 0
		for ; r+4 <= n; r += 4 {
			x0, x1, x2, x3 := xs[r], xs[r+1], xs[r+2], xs[r+3]
			i0, i1, i2, i3 := root, root, root, root
			for k := 0; k < d; k++ {
				b0, b1, b2, b3 := int32(1), int32(1), int32(1), int32(1)
				if x0[feature[i0]] <= threshold[i0] {
					b0 = 0
				}
				if x1[feature[i1]] <= threshold[i1] {
					b1 = 0
				}
				if x2[feature[i2]] <= threshold[i2] {
					b2 = 0
				}
				if x3[feature[i3]] <= threshold[i3] {
					b3 = 0
				}
				i0, i1, i2, i3 = kids[2*i0+b0], kids[2*i1+b1], kids[2*i2+b2], kids[2*i3+b3]
			}
			acc[r] += mul * value[i0]
			acc[r+1] += mul * value[i1]
			acc[r+2] += mul * value[i2]
			acc[r+3] += mul * value[i3]
		}
		for ; r < n; r++ {
			x := xs[r]
			i := root
			for k := 0; k < d; k++ {
				b := int32(1)
				if x[feature[i]] <= threshold[i] {
					b = 0
				}
				i = kids[2*i+b]
			}
			acc[r] += mul * value[i]
		}
	}
	e.finish(acc)
}

// finish applies the ensemble's final transform to the accumulated raw
// scores in place.
func (e *Ensemble) finish(acc []float64) {
	for r, a := range acc {
		acc[r] = e.final(a)
	}
}

// final is the ensemble's final transform of one accumulated raw
// score: the forest mean's divide, or GBDT's sigmoid.
func (e *Ensemble) final(a float64) float64 {
	if e.kind == kindGBDTLogit {
		return 1 / (1 + math.Exp(-a))
	}
	return a / e.trees
}
