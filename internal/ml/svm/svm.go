// Package svm implements a linear support vector machine trained with
// the Pegasos stochastic sub-gradient algorithm (Shalev-Shwartz et al.),
// one of the paper's five candidate algorithms. Probability outputs use
// a fixed logistic link on the margin (a lightweight stand-in for Platt
// scaling that keeps scores monotonic in the margin, which is all the
// ROC/AUC machinery needs).
//
// Inputs should be standardised: the trainer fits a per-feature z-score
// transform when Standardize is set, so raw SMART counters spanning
// ten orders of magnitude remain usable.
package svm

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ml"
	"repro/internal/rng"
)

// Trainer configures Pegasos training.
type Trainer struct {
	// Lambda is the L2 regularisation strength. Zero selects 1e-4.
	Lambda float64
	// Epochs is the number of passes over the data. Zero selects 20.
	Epochs int
	// Seed drives the sampling order.
	Seed int64
	// ClassWeight scales the loss of positive samples; useful on
	// imbalanced sets. Zero selects 1 (no reweighting).
	ClassWeight float64
	// Standardize fits a per-feature z-score transform on the training
	// data and applies it at prediction time.
	Standardize bool
}

// Name implements ml.Trainer.
func (t *Trainer) Name() string { return "SVM" }

// Train implements ml.Trainer. It reads whole rows, so a column
// sub-view is rejected.
func (t *Trainer) Train(v ml.View) (ml.Classifier, error) {
	if err := ml.ValidateView(v, true); err != nil {
		return nil, err
	}
	if v.Cols() != nil {
		return nil, fmt.Errorf("svm: column sub-view not supported")
	}
	lambda := t.Lambda
	if lambda == 0 {
		lambda = 1e-4
	}
	epochs := t.Epochs
	if epochs == 0 {
		epochs = 20
	}
	posWeight := t.ClassWeight
	if posWeight == 0 {
		posWeight = 1
	}
	n, width := v.Len(), v.Width()

	m := &Model{w: make([]float64, width)}
	xs := v.Xs()
	if t.Standardize {
		m.mean, m.std = fitScaler(xs)
		scaled := make([][]float64, len(xs))
		for i, x := range xs {
			scaled[i] = m.apply(x)
		}
		xs = scaled
	}

	r := rand.New(rng.NewSource(t.Seed + 1))
	step := 0
	// Averaged Pegasos: the average of the iterates over the second
	// half of training converges far more stably than the final
	// iterate.
	avgW := make([]float64, width)
	var avgB float64
	avgCount := 0
	halfway := epochs * n / 2
	for e := 0; e < epochs; e++ {
		order := r.Perm(n)
		for _, i := range order {
			step++
			eta := 1 / (lambda * float64(step))
			label := v.Y(i)
			y := float64(2*label - 1) // {-1, +1}
			weight := 1.0
			if label == 1 {
				weight = posWeight
			}
			margin := y * (dot(m.w, xs[i]) + m.b)
			// w ← (1 − ηλ)w, plus the hinge sub-gradient when violated.
			scale := 1 - eta*lambda
			for j := range m.w {
				m.w[j] *= scale
			}
			if margin < 1 {
				for j := range m.w {
					m.w[j] += eta * weight * y * xs[i][j]
				}
				m.b += eta * weight * y
			}
			if step > halfway {
				for j := range m.w {
					avgW[j] += m.w[j]
				}
				avgB += m.b
				avgCount++
			}
		}
	}
	if avgCount > 0 {
		for j := range m.w {
			m.w[j] = avgW[j] / float64(avgCount)
		}
		m.b = avgB / float64(avgCount)
	}
	return m, nil
}

// Model is a fitted linear SVM.
type Model struct {
	w    []float64
	b    float64
	mean []float64 // nil when the trainer did not standardise
	std  []float64
}

// Margin returns the signed distance-like score w·x + b.
func (m *Model) Margin(x []float64) float64 {
	if m.mean != nil {
		x = m.apply(x)
	}
	return dot(m.w, x) + m.b
}

// PredictProba implements ml.Classifier with a logistic link on the
// margin.
func (m *Model) PredictProba(x []float64) float64 {
	return 1 / (1 + math.Exp(-2*m.Margin(x)))
}

// Weights returns a copy of the weight vector (post-standardisation
// space when Standardize was set).
func (m *Model) Weights() []float64 {
	return append([]float64(nil), m.w...)
}

func (m *Model) apply(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - m.mean[j]) / m.std[j]
	}
	return out
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func fitScaler(xs [][]float64) (mean, std []float64) {
	width := len(xs[0])
	mean = make([]float64, width)
	std = make([]float64, width)
	n := float64(len(xs))
	for _, x := range xs {
		for j, v := range x {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= n
	}
	for _, x := range xs {
		for j, v := range x {
			d := v - mean[j]
			std[j] += d * d
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / n)
		if std[j] < 1e-12 {
			std[j] = 1
		}
	}
	return mean, std
}

// Exported is the model's serialisation form.
type Exported struct {
	Weights []float64
	Bias    float64
	// Mean/Std are the internal scaler (nil when not standardised).
	Mean []float64
	Std  []float64
}

// Export returns the model's serialisation form.
func (m *Model) Export() Exported {
	return Exported{
		Weights: append([]float64(nil), m.w...),
		Bias:    m.b,
		Mean:    append([]float64(nil), m.mean...),
		Std:     append([]float64(nil), m.std...),
	}
}

// Import reconstructs a model from its serialisation form.
func Import(e Exported) (*Model, error) {
	if len(e.Weights) == 0 {
		return nil, fmt.Errorf("svm: empty export")
	}
	if len(e.Mean) != len(e.Std) {
		return nil, fmt.Errorf("svm: scaler length mismatch")
	}
	if len(e.Mean) > 0 && len(e.Mean) != len(e.Weights) {
		return nil, fmt.Errorf("svm: scaler width %d != weights %d", len(e.Mean), len(e.Weights))
	}
	m := &Model{
		w: append([]float64(nil), e.Weights...),
		b: e.Bias,
	}
	if len(e.Mean) > 0 {
		m.mean = append([]float64(nil), e.Mean...)
		m.std = append([]float64(nil), e.Std...)
	}
	return m, nil
}
