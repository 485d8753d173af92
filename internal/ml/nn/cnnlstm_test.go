package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/mltest"
)

// newTinyNet builds a small network with identity input scaling, for
// white-box gradient checks.
func newTinyNet(seed int64) *Model {
	cfg := CNNLSTMTrainer{SeqLen: 4, Features: 3, Filters: 2, Kernel: 3, Hidden: 3}
	r := rand.New(rand.NewSource(seed))
	m := newModel(&cfg, r)
	m.mean = make([]float64, cfg.Features)
	m.std = []float64{1, 1, 1}
	return m
}

// bceLoss evaluates the network's binary cross-entropy on one sample.
func bceLoss(m *Model, x []float64, y float64) float64 {
	p := m.forward(m.newState(), x)
	p = math.Min(math.Max(p, 1e-12), 1-1e-12)
	if y == 1 {
		return -math.Log(p)
	}
	return -math.Log(1 - p)
}

// TestGradientCheck compares the analytic backprop gradients against
// central finite differences for every parameter tensor. This is the
// strongest possible unit test of the conv + BPTT implementation.
func TestGradientCheck(t *testing.T) {
	m := newTinyNet(1)
	r := rand.New(rand.NewSource(2))
	x := make([]float64, m.cfg.SeqLen*m.cfg.Features)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	const y = 1.0
	const eps = 1e-5

	for _, p := range m.params() {
		p.zeroGrad()
	}
	m.backward(m.newState(), x, y)

	params := m.params()
	names := []string{"convW", "convB", "lstmW", "lstmB", "outW", "outB"}
	for pi, p := range params {
		for i := range p.w {
			orig := p.w[i]
			p.w[i] = orig + eps
			lossPlus := bceLoss(m, x, y)
			p.w[i] = orig - eps
			lossMinus := bceLoss(m, x, y)
			p.w[i] = orig

			numeric := (lossPlus - lossMinus) / (2 * eps)
			analytic := p.g[i]
			diff := math.Abs(numeric - analytic)
			scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic)))
			if diff/scale > 1e-4 {
				t.Fatalf("%s[%d]: analytic %g vs numeric %g", names[pi], i, analytic, numeric)
			}
		}
	}
}

func TestGradientCheckNegativeLabel(t *testing.T) {
	m := newTinyNet(3)
	r := rand.New(rand.NewSource(4))
	x := make([]float64, m.cfg.SeqLen*m.cfg.Features)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	const eps = 1e-5
	m.backward(m.newState(), x, 0)
	p := m.lstmW
	for _, i := range []int{0, 7, len(p.w) / 2, len(p.w) - 1} {
		orig := p.w[i]
		p.w[i] = orig + eps
		lp := bceLoss(m, x, 0)
		p.w[i] = orig - eps
		lm := bceLoss(m, x, 0)
		p.w[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-p.g[i]) > 1e-4*math.Max(1, math.Abs(numeric)) {
			t.Fatalf("lstmW[%d]: analytic %g vs numeric %g", i, p.g[i], numeric)
		}
	}
}

// seqBlobs builds sequence samples whose class is encoded in the trend
// of the first feature over time.
func seqBlobs(n, seqLen, features int, seed int64) []ml.Sample {
	r := rand.New(rand.NewSource(seed))
	var out []ml.Sample
	for i := 0; i < n; i++ {
		for _, y := range []int{0, 1} {
			x := make([]float64, seqLen*features)
			for tstep := 0; tstep < seqLen; tstep++ {
				for f := 0; f < features; f++ {
					v := r.NormFloat64() * 0.3
					if f == 0 && y == 1 {
						v += float64(tstep) // rising trend for positives
					}
					x[tstep*features+f] = v
				}
			}
			out = append(out, ml.Sample{X: x, Y: y})
		}
	}
	return out
}

func TestCNNLSTMLearnsTrend(t *testing.T) {
	trainer := &CNNLSTMTrainer{
		SeqLen: 5, Features: 3, Filters: 8, Kernel: 3, Hidden: 12,
		Epochs: 20, Batch: 16, Seed: 1,
	}
	train := seqBlobs(150, 5, 3, 1)
	test := seqBlobs(80, 5, 3, 2)
	clf, err := trainer.Train(mltest.View(train))
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, s := range test {
		if ml.Predict(clf, s.X) == s.Y {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(test)); acc < 0.9 {
		t.Fatalf("trend accuracy = %g", acc)
	}
}

func TestTrainerValidation(t *testing.T) {
	good := seqBlobs(5, 2, 2, 3)
	if _, err := (&CNNLSTMTrainer{SeqLen: 0, Features: 2}).Train(mltest.View(good)); err == nil {
		t.Error("zero SeqLen accepted")
	}
	if _, err := (&CNNLSTMTrainer{SeqLen: 3, Features: 2}).Train(mltest.View(good)); err == nil {
		t.Error("width mismatch accepted")
	}
	if _, err := (&CNNLSTMTrainer{SeqLen: 2, Features: 2}).Train(ml.View{}); err == nil {
		t.Error("empty set accepted")
	}
	// A column sub-view is rejected, even one of the expected width.
	if _, err := (&CNNLSTMTrainer{SeqLen: 1, Features: 2}).Train(mltest.View(good).WithCols([]int{0, 1})); err == nil {
		t.Error("column sub-view accepted")
	}
}

func TestPredictProbaBounds(t *testing.T) {
	trainer := &CNNLSTMTrainer{SeqLen: 3, Features: 2, Epochs: 2, Seed: 1}
	train := seqBlobs(30, 3, 2, 5)
	clf, err := trainer.Train(mltest.View(train))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seqBlobs(30, 3, 2, 6) {
		p := clf.PredictProba(s.X)
		if math.IsNaN(p) || p < 0 || p > 1 {
			t.Fatalf("probability %g out of bounds", p)
		}
	}
}

func TestAdamStepReducesLoss(t *testing.T) {
	m := newTinyNet(7)
	r := rand.New(rand.NewSource(8))
	x := make([]float64, m.cfg.SeqLen*m.cfg.Features)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	opt := newAdam(1e-2)
	before := bceLoss(m, x, 1)
	st := m.newState()
	for i := 0; i < 50; i++ {
		m.backward(st, x, 1)
		opt.update(m.params(), 1)
	}
	after := bceLoss(m, x, 1)
	if after >= before {
		t.Fatalf("loss did not decrease: %g → %g", before, after)
	}
}

func TestScalerFitsTrainingData(t *testing.T) {
	trainer := &CNNLSTMTrainer{SeqLen: 2, Features: 2}
	samples := []ml.Sample{
		{X: []float64{1000, 1, 2000, 3}, Y: 0},
		{X: []float64{3000, 5, 4000, 7}, Y: 1},
	}
	r := rand.New(rand.NewSource(1))
	m := newModel(trainer, r)
	m.fitScaler(mltest.View(samples))
	// Feature 0 sees values {1000, 2000, 3000, 4000} → mean 2500.
	if math.Abs(m.mean[0]-2500) > 1e-9 {
		t.Fatalf("mean[0] = %g, want 2500", m.mean[0])
	}
	if m.std[0] <= 0 {
		t.Fatal("std must be positive")
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	trainer := &CNNLSTMTrainer{SeqLen: 3, Features: 4, Filters: 4, Kernel: 3, Hidden: 5, Epochs: 3, Seed: 1}
	train := seqBlobs(40, 3, 4, 40)
	clf, err := trainer.Train(mltest.View(train))
	if err != nil {
		t.Fatal(err)
	}
	m := clf.(*Model)
	restored, err := Import(m.Export())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seqBlobs(20, 3, 4, 41) {
		if restored.PredictProba(s.X) != m.PredictProba(s.X) {
			t.Fatal("round trip changed predictions")
		}
	}
}

func TestImportRejectsCorrupt(t *testing.T) {
	if _, err := Import(Exported{}); err == nil {
		t.Error("zero architecture accepted")
	}
	e := Exported{SeqLen: 2, Features: 2, Filters: 2, Kernel: 3, Hidden: 2,
		ConvW: make([]float64, 1), // wrong size
	}
	if _, err := Import(e); err == nil {
		t.Error("wrong tensor size accepted")
	}
	// Correct sizes but non-positive scaler std.
	good := Exported{
		SeqLen: 2, Features: 2, Filters: 2, Kernel: 3, Hidden: 2,
		ConvW: make([]float64, 2*3*2), ConvB: make([]float64, 2),
		LSTMW: make([]float64, 4*2*(2+2)), LSTMB: make([]float64, 4*2),
		OutW: make([]float64, 2), OutB: make([]float64, 1),
		Mean: make([]float64, 2), Std: make([]float64, 2), // zero std
	}
	if _, err := Import(good); err == nil {
		t.Error("zero scaler std accepted")
	}
}
