package ml

import "testing"

// constClf scores rows per-row only.
type constClf struct{}

func (constClf) PredictProba(x []float64) float64 { return x[0] / 2 }

// recordingBatch implements BatchClassifier and records which of its
// two batch paths was taken: a PredictProbaBatch call, or a NewRun.
type recordingBatch struct {
	constClf
	batchCalls, runsCalls int
	gotWorkers            int
}

func (r *recordingBatch) PredictProbaBatch(xs [][]float64, out []float64, workers int) {
	r.batchCalls++
	r.gotWorkers = workers
	for i := range xs {
		out[i] = r.PredictProba(xs[i])
	}
}

func (r *recordingBatch) NewRun() Run {
	r.runsCalls++
	return PerRow{r.constClf}
}

func batchView(t *testing.T) View {
	t.Helper()
	set, err := FromSamples([]Sample{
		{X: []float64{0.2}}, {X: []float64{0.8}}, {X: []float64{1.4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return set.All()
}

func TestBatchScoresPrefersBatchClassifier(t *testing.T) {
	rb := &recordingBatch{}
	scores := BatchScoresView(rb, batchView(t), 3)
	// Three rows are one worker block, so one run.
	if rb.runsCalls != 1 || rb.batchCalls != 0 {
		t.Fatalf("view scoring took the runs path %d and the batch path %d times, want 1 and 0", rb.runsCalls, rb.batchCalls)
	}
	want := BatchScoresView(constClf{}, batchView(t), 1)
	for i := range scores {
		if scores[i] != want[i] {
			t.Fatalf("row %d: batch %v != per-row %v", i, scores[i], want[i])
		}
	}
}

// TestScoreBatchKeepsDirectPath pins the split between the two batch
// entry points: ScoreBatch, which serves unordered rows, never takes
// the runs path.
func TestScoreBatchKeepsDirectPath(t *testing.T) {
	rb := &recordingBatch{}
	ScoreBatch(rb, batchView(t).Xs(), make([]float64, 3), 2)
	if rb.batchCalls != 1 || rb.runsCalls != 0 {
		t.Fatalf("ScoreBatch took the batch path %d and the runs path %d times, want 1 and 0", rb.batchCalls, rb.runsCalls)
	}
	if rb.gotWorkers != 2 {
		t.Fatalf("workers = %d, want 2 threaded through", rb.gotWorkers)
	}
}

func TestBatchScoresEmptyAndFallback(t *testing.T) {
	v := batchView(t)
	if got := BatchScoresView(constClf{}, v.WithRows([]int32{}), 0); len(got) != 0 {
		t.Fatalf("empty view scored %d rows", len(got))
	}
	scores := BatchScoresView(constClf{}, v, 0)
	for i := range scores {
		if scores[i] != v.Row(i)[0]/2 {
			t.Fatalf("row %d: %v", i, scores[i])
		}
	}
}

func TestScoreBatchLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched lengths accepted")
		}
	}()
	ScoreBatch(constClf{}, make([][]float64, 2), make([]float64, 3), 1)
}

func TestScoreRunsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched lengths accepted")
		}
	}()
	ScoreRuns(&recordingBatch{}, make([][]float64, 2), make([]float64, 1), 1)
}

// TestNewRunFallsBackToPerRow pins the stateless run for classifiers
// without a batch kernel: each Score is PredictProba.
func TestNewRunFallsBackToPerRow(t *testing.T) {
	run := NewRun(constClf{})
	if _, ok := run.(PerRow); !ok {
		t.Fatalf("NewRun(constClf) = %T, want PerRow", run)
	}
	for _, v := range []float64{0.2, 0.8, 0.2} {
		if got := run.Score([]float64{v}); got != v/2 {
			t.Fatalf("Score(%v) = %v, want %v", v, got, v/2)
		}
	}
	rb := &recordingBatch{}
	NewRun(rb)
	if rb.runsCalls != 1 {
		t.Fatalf("NewRun of a BatchClassifier made %d runs through it, want 1", rb.runsCalls)
	}
}
