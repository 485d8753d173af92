package ml

import "repro/internal/parallel"

// BatchClassifier is the fast-path scoring interface: classifiers that
// can score a whole matrix of rows at once (typically through a
// compiled, flattened form) implement it in addition to Classifier.
// PredictProbaBatch must write exactly the per-row PredictProba scores
// into out (len(out) == len(xs)), must be safe for concurrent use, and
// must honour the repository Workers convention (0 = GOMAXPROCS,
// 1 = serial) with results identical at any worker count.
//
// NewRun returns a fresh Run for scoring one sequence of rows — one
// drive's consecutive days — and must be safe to call concurrently.
// The tree ensembles return their differential kernel's resumable
// state, which re-walks only the trees whose current path holds a
// split threshold the row crossed since the run's previous row.
type BatchClassifier interface {
	Classifier
	PredictProbaBatch(xs [][]float64, out []float64, workers int)
	NewRun() Run
}

// Run scores one sequence of rows, one row at a time, and must return
// exactly PredictProba's score for every row whatever rows came before
// it; only its speed may depend on the order. A run is not safe for
// concurrent use. The serving scorer keeps one per drive and resumes
// it with each day's rows; ScoreRuns starts one per worker block.
type Run interface {
	Score(x []float64) float64
}

// PerRow is the stateless Run: each Score is one PredictProba call.
type PerRow struct{ Classifier }

// Score implements Run.
func (p PerRow) Score(x []float64) float64 { return p.PredictProba(x) }

// NewRun returns a fresh Run for clf: its own NewRun when clf
// implements BatchClassifier, otherwise PerRow.
func NewRun(clf Classifier) Run {
	if bc, ok := clf.(BatchClassifier); ok {
		return bc.NewRun()
	}
	return PerRow{clf}
}

// ScoreBatch scores raw feature vectors into out through the fastest
// path clf offers for rows in no particular order: the flattened batch
// kernel when clf implements BatchClassifier, otherwise a per-row
// fan-out via internal/parallel. Both paths produce identical scores at
// any worker count. The serving scorer does not call it: it resumes
// each drive's own Run instead.
func ScoreBatch(clf Classifier, xs [][]float64, out []float64, workers int) {
	if len(xs) != len(out) {
		panic("ml: ScoreBatch rows and outputs differ in length")
	}
	if bc, ok := clf.(BatchClassifier); ok {
		bc.PredictProbaBatch(xs, out, workers)
		return
	}
	// Every classifier in this repository is read-only during
	// prediction, which is what makes the fan-out safe; external
	// Classifier implementations used with this helper must be too.
	_ = parallel.Do(len(xs), workers, func(i int) error {
		out[i] = clf.PredictProba(xs[i])
		return nil
	})
}

// runBlockRows is ScoreRuns' worker block. Each block starts a fresh
// run, whose first row walks every tree, so a block must be long
// enough for that restart to vanish against the rows that follow it.
const runBlockRows = 4096

// ScoreRuns is ScoreBatch for rows that come in runs of one drive's
// consecutive days: rows are cut into worker blocks of runBlockRows
// (0 = GOMAXPROCS, 1 = serial), and each block scores its rows in
// order through one Run when clf implements BatchClassifier; other
// classifiers score per row as ScoreBatch does. The scores are
// identical to ScoreBatch's for any row order. Rows in any other order
// (a day's rows of many drives) belong on ScoreBatch, which is faster
// there.
func ScoreRuns(clf Classifier, xs [][]float64, out []float64, workers int) {
	if len(xs) != len(out) {
		panic("ml: ScoreRuns rows and outputs differ in length")
	}
	bc, ok := clf.(BatchClassifier)
	if !ok {
		ScoreBatch(clf, xs, out, workers)
		return
	}
	blocks := (len(xs) + runBlockRows - 1) / runBlockRows
	_ = parallel.Do(blocks, workers, func(b int) error {
		lo := b * runBlockRows
		hi := min(lo+runBlockRows, len(xs))
		run := bc.NewRun()
		for i := lo; i < hi; i++ {
			out[i] = run.Score(xs[i])
		}
		return nil
	})
}

// ScoreView scores a view's rows into out (len(out) == v.Len()) through
// ScoreRuns, reading full-width vectors straight out of the arena.
//
// Rows are scored in ascending arena order and each score is written
// back to its view position, so out is in view order. Sets built by
// features.BuildSampleSetFrame store rows drive then day, so arena
// order keeps a drive's days together, and most features barely move
// from one day to the next: the differential kernel behind ScoreRuns
// then re-walks only a few percent of the trees per row. The sampling
// package hands back day-ordered views, where consecutive rows come
// from different drives. Repeated rows are scored once per
// occurrence. Scores are identical in any order and at any worker
// count, so the reordering never changes a result.
//
// A view already in ascending arena order (the all-rows view included)
// allocates only its row-header slice. Any other view also allocates
// the reordering (InArenaOrder) and a score buffer, all O(view), plus
// one int32 per arena row of counting table.
//
// Views with a column subset are rejected: models trained through the
// view path index features globally, so masked scoring is never needed
// on this path.
func ScoreView(clf Classifier, v View, out []float64, workers int) {
	if v.Cols() != nil {
		panic("ml: ScoreView on a column-subset view")
	}
	if len(out) != v.Len() {
		panic("ml: ScoreView rows and outputs differ in length")
	}
	if v.Len() == 0 {
		return
	}
	sorted, pos := v.InArenaOrder()
	if pos == nil {
		ScoreRuns(clf, v.Xs(), out, workers)
		return
	}
	scores := make([]float64, len(pos))
	ScoreRuns(clf, sorted.Xs(), scores, workers)
	for k, p := range pos {
		out[p] = scores[k]
	}
}

// BatchScoresView is ScoreView with a freshly allocated output slice,
// in view order; it allocates what ScoreView does plus that slice.
func BatchScoresView(clf Classifier, v View, workers int) []float64 {
	out := make([]float64, v.Len())
	ScoreView(clf, v, out, workers)
	return out
}
