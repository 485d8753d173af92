package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ml"
)

// CNNLSTMTrainer trains the paper's CNN_LSTM model: conv1d over the
// time axis → ReLU → LSTM → dense sigmoid head. Samples carry a window
// of SeqLen consecutive observations flattened time-major into X
// (len(X) == SeqLen*Features); the sampling layer produces exactly this
// layout.
type CNNLSTMTrainer struct {
	// SeqLen is the number of timesteps per sample. Required.
	SeqLen int
	// Features is the per-timestep feature count. Required.
	Features int
	// Filters is the number of conv1d output channels; 0 selects 16.
	Filters int
	// Kernel is the conv window length in timesteps; 0 selects 3.
	Kernel int
	// Hidden is the LSTM state size; 0 selects 32.
	Hidden int
	// Epochs is the number of training passes; 0 selects 30.
	Epochs int
	// Batch is the minibatch size; 0 selects 32.
	Batch int
	// LearningRate for Adam; 0 selects 1e-3.
	LearningRate float64
	// Seed drives initialisation and shuffling.
	Seed int64
}

// Name implements ml.Trainer.
func (t *CNNLSTMTrainer) Name() string { return "CNN_LSTM" }

// Train implements ml.Trainer. It reads whole rows, so a column
// sub-view is rejected.
func (t *CNNLSTMTrainer) Train(v ml.View) (ml.Classifier, error) {
	if err := ml.ValidateView(v, true); err != nil {
		return nil, err
	}
	if v.Cols() != nil {
		return nil, fmt.Errorf("nn: column sub-view not supported")
	}
	if t.SeqLen <= 0 || t.Features <= 0 {
		return nil, fmt.Errorf("nn: SeqLen and Features must be set (have %d, %d)", t.SeqLen, t.Features)
	}
	if want := t.SeqLen * t.Features; v.Width() != want {
		return nil, fmt.Errorf("nn: sample width %d, want SeqLen*Features = %d", v.Width(), want)
	}
	cfg := *t
	if cfg.Filters == 0 {
		cfg.Filters = 16
	}
	if cfg.Kernel == 0 {
		cfg.Kernel = 3
	}
	if cfg.Hidden == 0 {
		cfg.Hidden = 32
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 30
	}
	if cfg.Batch == 0 {
		cfg.Batch = 32
	}
	if cfg.LearningRate == 0 {
		cfg.LearningRate = 1e-3
	}

	r := rand.New(rand.NewSource(cfg.Seed + 42))
	m := newModel(&cfg, r)
	m.fitScaler(v)

	opt := newAdam(cfg.LearningRate)
	order := make([]int, v.Len())
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += cfg.Batch {
			end := start + cfg.Batch
			if end > len(order) {
				end = len(order)
			}
			for _, i := range order[start:end] {
				m.backward(v.Row(i), float64(v.Y(i)))
			}
			opt.update(m.params(), end-start)
		}
	}
	return m, nil
}

// Model is a fitted CNN_LSTM network.
type Model struct {
	cfg CNNLSTMTrainer

	// Conv1d: convW[c][k*F+f], convB[c].
	convW, convB *param
	// LSTM packed gates in i,f,o,g order: lstmW[gate*H+h][C+H], lstmB.
	lstmW, lstmB *param
	// Dense head.
	outW, outB *param

	// Input z-score scaler, fitted on training data.
	mean, std []float64
}

func newModel(cfg *CNNLSTMTrainer, r *rand.Rand) *Model {
	F, C, K, H := cfg.Features, cfg.Filters, cfg.Kernel, cfg.Hidden
	m := &Model{
		cfg:   *cfg,
		convW: newParam(C * K * F),
		convB: newParam(C),
		lstmW: newParam(4 * H * (C + H)),
		lstmB: newParam(4 * H),
		outW:  newParam(H),
		outB:  newParam(1),
	}
	m.convW.initUniform(r, math.Sqrt(2/float64(K*F)))
	m.lstmW.initUniform(r, math.Sqrt(1/float64(C+H)))
	m.outW.initUniform(r, math.Sqrt(1/float64(H)))
	// Forget-gate bias starts at 1 so early training retains memory.
	for h := 0; h < H; h++ {
		m.lstmB.w[H+h] = 1
	}
	return m
}

func (m *Model) params() []*param {
	return []*param{m.convW, m.convB, m.lstmW, m.lstmB, m.outW, m.outB}
}

func (m *Model) fitScaler(v ml.View) {
	F := m.cfg.Features
	m.mean = make([]float64, F)
	m.std = make([]float64, F)
	n := 0
	for i := 0; i < v.Len(); i++ {
		for j, x := range v.Row(i) {
			m.mean[j%F] += x
		}
		n += m.cfg.SeqLen
	}
	for f := range m.mean {
		m.mean[f] /= float64(n)
	}
	for i := 0; i < v.Len(); i++ {
		for j, x := range v.Row(i) {
			d := x - m.mean[j%F]
			m.std[j%F] += d * d
		}
	}
	for f := range m.std {
		m.std[f] = math.Sqrt(m.std[f] / float64(n))
		if m.std[f] < 1e-12 {
			m.std[f] = 1
		}
	}
}

// scale returns the z-scored input as a T×F matrix.
func (m *Model) scale(x []float64) [][]float64 {
	T, F := m.cfg.SeqLen, m.cfg.Features
	out := make([][]float64, T)
	for t := 0; t < T; t++ {
		row := make([]float64, F)
		for f := 0; f < F; f++ {
			row[f] = (x[t*F+f] - m.mean[f]) / m.std[f]
		}
		out[t] = row
	}
	return out
}

// forwardState captures the activations needed for backprop.
type forwardState struct {
	x     [][]float64 // scaled input T×F
	convZ [][]float64 // pre-activation T×C
	convA [][]float64 // ReLU output T×C
	// LSTM internals, all T×H.
	gi, gf, go_, gg [][]float64
	cell, cellTanh  [][]float64
	hidden          [][]float64
	logit           float64
	prob            float64
}

// forward runs the network on raw input x.
func (m *Model) forward(x []float64) *forwardState {
	T, F, C, K, H := m.cfg.SeqLen, m.cfg.Features, m.cfg.Filters, m.cfg.Kernel, m.cfg.Hidden
	st := &forwardState{x: m.scale(x)}

	// Conv1d, zero ("same") padding.
	st.convZ = make2d(T, C)
	st.convA = make2d(T, C)
	half := K / 2
	for t := 0; t < T; t++ {
		for c := 0; c < C; c++ {
			z := m.convB.w[c]
			for k := 0; k < K; k++ {
				tt := t + k - half
				if tt < 0 || tt >= T {
					continue
				}
				wOff := c*K*F + k*F
				row := st.x[tt]
				for f := 0; f < F; f++ {
					z += m.convW.w[wOff+f] * row[f]
				}
			}
			st.convZ[t][c] = z
			if z > 0 {
				st.convA[t][c] = z
			}
		}
	}

	// LSTM over T steps.
	st.gi, st.gf, st.go_, st.gg = make2d(T, H), make2d(T, H), make2d(T, H), make2d(T, H)
	st.cell, st.cellTanh, st.hidden = make2d(T, H), make2d(T, H), make2d(T, H)
	in := C + H
	prevH := make([]float64, H)
	prevC := make([]float64, H)
	for t := 0; t < T; t++ {
		a := st.convA[t]
		for h := 0; h < H; h++ {
			var zi, zf, zo, zg float64
			rowI := (0*H + h) * in
			rowF := (1*H + h) * in
			rowO := (2*H + h) * in
			rowG := (3*H + h) * in
			for j := 0; j < C; j++ {
				v := a[j]
				zi += m.lstmW.w[rowI+j] * v
				zf += m.lstmW.w[rowF+j] * v
				zo += m.lstmW.w[rowO+j] * v
				zg += m.lstmW.w[rowG+j] * v
			}
			for j := 0; j < H; j++ {
				v := prevH[j]
				zi += m.lstmW.w[rowI+C+j] * v
				zf += m.lstmW.w[rowF+C+j] * v
				zo += m.lstmW.w[rowO+C+j] * v
				zg += m.lstmW.w[rowG+C+j] * v
			}
			gi := sigmoid(zi + m.lstmB.w[0*H+h])
			gf := sigmoid(zf + m.lstmB.w[1*H+h])
			gout := sigmoid(zo + m.lstmB.w[2*H+h])
			gg := tanh(zg + m.lstmB.w[3*H+h])
			cell := gf*prevC[h] + gi*gg
			ct := tanh(cell)
			st.gi[t][h], st.gf[t][h], st.go_[t][h], st.gg[t][h] = gi, gf, gout, gg
			st.cell[t][h], st.cellTanh[t][h] = cell, ct
			st.hidden[t][h] = gout * ct
		}
		copy(prevH, st.hidden[t])
		copy(prevC, st.cell[t])
	}

	// Dense sigmoid head on the final hidden state.
	z := m.outB.w[0]
	last := st.hidden[T-1]
	for h := 0; h < H; h++ {
		z += m.outW.w[h] * last[h]
	}
	st.logit = z
	st.prob = sigmoid(z)
	return st
}

// backward accumulates gradients of the BCE loss for one sample.
func (m *Model) backward(x []float64, y float64) {
	T, F, C, K, H := m.cfg.SeqLen, m.cfg.Features, m.cfg.Filters, m.cfg.Kernel, m.cfg.Hidden
	st := m.forward(x)

	// dL/dlogit for BCE + sigmoid.
	dz := st.prob - y
	m.outB.g[0] += dz
	last := st.hidden[T-1]
	dH := make2d(T, H) // dL/dh_t (accumulated)
	for h := 0; h < H; h++ {
		m.outW.g[h] += dz * last[h]
		dH[T-1][h] += dz * m.outW.w[h]
	}

	// BPTT.
	in := C + H
	dA := make2d(T, C) // dL/d convA
	dCNext := make([]float64, H)
	for t := T - 1; t >= 0; t-- {
		var prevH, prevC []float64
		if t > 0 {
			prevH = st.hidden[t-1]
			prevC = st.cell[t-1]
		} else {
			prevH = make([]float64, H)
			prevC = make([]float64, H)
		}
		for h := 0; h < H; h++ {
			dh := dH[t][h]
			ct := st.cellTanh[t][h]
			gout := st.go_[t][h]
			dc := dCNext[h] + dh*gout*(1-ct*ct)

			gi, gf, gg := st.gi[t][h], st.gf[t][h], st.gg[t][h]
			dzo := dh * ct * gout * (1 - gout)
			dzi := dc * gg * gi * (1 - gi)
			dzf := dc * prevC[h] * gf * (1 - gf)
			dzg := dc * gi * (1 - gg*gg)
			dCNext[h] = dc * gf

			m.lstmB.g[0*H+h] += dzi
			m.lstmB.g[1*H+h] += dzf
			m.lstmB.g[2*H+h] += dzo
			m.lstmB.g[3*H+h] += dzg

			rowI := (0*H + h) * in
			rowF := (1*H + h) * in
			rowO := (2*H + h) * in
			rowG := (3*H + h) * in
			a := st.convA[t]
			for j := 0; j < C; j++ {
				v := a[j]
				m.lstmW.g[rowI+j] += dzi * v
				m.lstmW.g[rowF+j] += dzf * v
				m.lstmW.g[rowO+j] += dzo * v
				m.lstmW.g[rowG+j] += dzg * v
				dA[t][j] += dzi*m.lstmW.w[rowI+j] + dzf*m.lstmW.w[rowF+j] +
					dzo*m.lstmW.w[rowO+j] + dzg*m.lstmW.w[rowG+j]
			}
			for j := 0; j < H; j++ {
				v := prevH[j]
				m.lstmW.g[rowI+C+j] += dzi * v
				m.lstmW.g[rowF+C+j] += dzf * v
				m.lstmW.g[rowO+C+j] += dzo * v
				m.lstmW.g[rowG+C+j] += dzg * v
				if t > 0 {
					dH[t-1][j] += dzi*m.lstmW.w[rowI+C+j] + dzf*m.lstmW.w[rowF+C+j] +
						dzo*m.lstmW.w[rowO+C+j] + dzg*m.lstmW.w[rowG+C+j]
				}
			}
		}
	}

	// Conv backward (ReLU mask; input gradient not needed).
	half := K / 2
	for t := 0; t < T; t++ {
		for c := 0; c < C; c++ {
			if st.convZ[t][c] <= 0 {
				continue
			}
			g := dA[t][c]
			if g == 0 {
				continue
			}
			m.convB.g[c] += g
			for k := 0; k < K; k++ {
				tt := t + k - half
				if tt < 0 || tt >= T {
					continue
				}
				wOff := c*K*F + k*F
				row := st.x[tt]
				for f := 0; f < F; f++ {
					m.convW.g[wOff+f] += g * row[f]
				}
			}
		}
	}
}

// PredictProba implements ml.Classifier.
func (m *Model) PredictProba(x []float64) float64 {
	return m.forward(x).prob
}

func make2d(rows, cols int) [][]float64 {
	backing := make([]float64, rows*cols)
	out := make([][]float64, rows)
	for i := range out {
		out[i] = backing[i*cols : (i+1)*cols]
	}
	return out
}
