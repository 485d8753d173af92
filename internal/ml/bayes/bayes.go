// Package bayes implements Gaussian naive Bayes, one of the paper's
// five candidate algorithms for MFPA. Each feature is modelled as an
// independent Gaussian per class; degenerate (zero-variance) features
// receive a small variance floor so constant columns — common in SMART
// data, e.g. AvailableSpareThreshold — do not produce infinities.
package bayes

import (
	"fmt"
	"math"

	"repro/internal/ml"
)

// Trainer fits a Gaussian naive Bayes model.
type Trainer struct {
	// VarSmoothing is added to every per-feature variance as a fraction
	// of the largest feature variance (sklearn-style). Zero selects the
	// default 1e-9.
	VarSmoothing float64
}

// Name implements ml.Trainer.
func (t *Trainer) Name() string { return "Bayes" }

// Train implements ml.Trainer. It reads whole rows, so a column
// sub-view is rejected.
func (t *Trainer) Train(v ml.View) (ml.Classifier, error) {
	if err := ml.ValidateView(v, true); err != nil {
		return nil, err
	}
	if v.Cols() != nil {
		return nil, fmt.Errorf("bayes: column sub-view not supported")
	}
	smoothing := t.VarSmoothing
	if smoothing == 0 {
		smoothing = 1e-9
	}
	n, width := v.Len(), v.Width()
	m := &Model{
		mean: [2][]float64{make([]float64, width), make([]float64, width)},
		vari: [2][]float64{make([]float64, width), make([]float64, width)},
	}
	var count [2]float64
	for i := 0; i < n; i++ {
		y := v.Y(i)
		count[y]++
		for j, x := range v.Row(i) {
			m.mean[y][j] += x
		}
	}
	for y := 0; y < 2; y++ {
		for j := range m.mean[y] {
			m.mean[y][j] /= count[y]
		}
	}
	for i := 0; i < n; i++ {
		y := v.Y(i)
		for j, x := range v.Row(i) {
			d := x - m.mean[y][j]
			m.vari[y][j] += d * d
		}
	}
	// Variance floor: fraction of the largest overall feature variance.
	var maxVar float64
	for y := 0; y < 2; y++ {
		for j := range m.vari[y] {
			m.vari[y][j] /= count[y]
			if m.vari[y][j] > maxVar {
				maxVar = m.vari[y][j]
			}
		}
	}
	eps := smoothing * maxVar
	if eps == 0 {
		eps = smoothing
	}
	for y := 0; y < 2; y++ {
		for j := range m.vari[y] {
			m.vari[y][j] += eps
		}
	}
	total := count[0] + count[1]
	m.logPrior[0] = math.Log(count[0] / total)
	m.logPrior[1] = math.Log(count[1] / total)
	return m, nil
}

// Model is a fitted Gaussian naive Bayes classifier.
type Model struct {
	mean     [2][]float64
	vari     [2][]float64
	logPrior [2]float64
}

// PredictProba implements ml.Classifier: P(y=1 | x) via Bayes' rule on
// the two class log-likelihoods.
func (m *Model) PredictProba(x []float64) float64 {
	var logp [2]float64
	for y := 0; y < 2; y++ {
		lp := m.logPrior[y]
		for j, v := range x {
			d := v - m.mean[y][j]
			lp += -0.5*math.Log(2*math.Pi*m.vari[y][j]) - d*d/(2*m.vari[y][j])
		}
		logp[y] = lp
	}
	// Normalise in log space to avoid under/overflow.
	max := math.Max(logp[0], logp[1])
	p0 := math.Exp(logp[0] - max)
	p1 := math.Exp(logp[1] - max)
	return p1 / (p0 + p1)
}

// Exported is the model's serialisation form.
type Exported struct {
	Mean     [2][]float64
	Variance [2][]float64
	LogPrior [2]float64
}

// Export returns the model's serialisation form.
func (m *Model) Export() Exported {
	var e Exported
	for y := 0; y < 2; y++ {
		e.Mean[y] = append([]float64(nil), m.mean[y]...)
		e.Variance[y] = append([]float64(nil), m.vari[y]...)
	}
	e.LogPrior = m.logPrior
	return e
}

// Import reconstructs a model from its serialisation form.
func Import(e Exported) (*Model, error) {
	if len(e.Mean[0]) == 0 || len(e.Mean[0]) != len(e.Mean[1]) ||
		len(e.Mean[0]) != len(e.Variance[0]) || len(e.Mean[0]) != len(e.Variance[1]) {
		return nil, fmt.Errorf("bayes: inconsistent export widths")
	}
	for y := 0; y < 2; y++ {
		for _, v := range e.Variance[y] {
			if v <= 0 {
				return nil, fmt.Errorf("bayes: non-positive variance in export")
			}
		}
	}
	m := &Model{logPrior: e.LogPrior}
	for y := 0; y < 2; y++ {
		m.mean[y] = append([]float64(nil), e.Mean[y]...)
		m.vari[y] = append([]float64(nil), e.Variance[y]...)
	}
	return m, nil
}
