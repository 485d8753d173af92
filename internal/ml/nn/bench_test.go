package nn

import (
	"math/rand"
	"testing"
)

func benchNet(b *testing.B) (*Model, []float64) {
	b.Helper()
	cfg := CNNLSTMTrainer{SeqLen: 5, Features: 45, Filters: 16, Kernel: 3, Hidden: 32}
	r := rand.New(rand.NewSource(1))
	m := newModel(&cfg, r)
	m.mean = make([]float64, cfg.Features)
	m.std = make([]float64, cfg.Features)
	for i := range m.std {
		m.std[i] = 1
	}
	x := make([]float64, cfg.SeqLen*cfg.Features)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	return m, x
}

func BenchmarkCNNLSTMForward(b *testing.B) {
	m, x := benchNet(b)
	st := m.newState()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.forward(st, x)
	}
}

func BenchmarkCNNLSTMBackward(b *testing.B) {
	m, x := benchNet(b)
	st := m.newState()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.backward(st, x, 1)
	}
}
