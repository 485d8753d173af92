package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/ml"
	"repro/internal/rng"
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

	r := rand.New(rng.NewSource(cfg.Seed + 42))
	m := newModel(&cfg, r)
	m.fitScaler(v)

	opt := newAdam(cfg.LearningRate)
	order := make([]int, v.Len())
	for i := range order {
		order[i] = i
	}
	st := m.newState()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += cfg.Batch {
			end := start + cfg.Batch
			if end > len(order) {
				end = len(order)
			}
			for _, i := range order[start:end] {
				m.backward(st, v.Row(i), float64(v.Y(i)))
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

	// states pools PredictProba's per-call scratch.
	states sync.Pool
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

// state is one sample's activations, flat and time-major, and the
// accumulators backward reads them into. A pass overwrites or zeroes
// every buffer before reading it, so one state serves any number of
// samples in turn; it must not be shared between goroutines.
type state struct {
	x     []float64 // scaled input T×F
	convZ []float64 // pre-activation T×C
	convA []float64 // ReLU output T×C
	// LSTM internals, all T×H.
	gi, gf, gout, gg []float64
	cell, cellTanh   []float64
	hidden           []float64
	// Backward accumulators: dL/dh_t (T×H), dL/d convA (T×C) and the
	// cell gradient carried to the previous step (H).
	dH, dA, dCNext []float64
	// zero is the H-vector of zeros that stands in for the hidden and
	// cell state before the first step; nothing writes it.
	zero []float64
	prob float64
}

func (m *Model) newState() *state {
	T, F, C, H := m.cfg.SeqLen, m.cfg.Features, m.cfg.Filters, m.cfg.Hidden
	buf := make([]float64, T*F+3*T*C+8*T*H+2*H)
	next := func(n int) []float64 {
		s := buf[:n:n]
		buf = buf[n:]
		return s
	}
	return &state{
		x: next(T * F), convZ: next(T * C), convA: next(T * C),
		gi: next(T * H), gf: next(T * H), gout: next(T * H), gg: next(T * H),
		cell: next(T * H), cellTanh: next(T * H), hidden: next(T * H),
		dH: next(T * H), dA: next(T * C), dCNext: next(H), zero: next(H),
	}
}

// forward runs the network on raw input x, leaving its activations in
// st, and returns the probability.
func (m *Model) forward(st *state, x []float64) float64 {
	T, F, C, K, H := m.cfg.SeqLen, m.cfg.Features, m.cfg.Filters, m.cfg.Kernel, m.cfg.Hidden

	// z-score the input.
	for t := 0; t < T; t++ {
		for f := 0; f < F; f++ {
			st.x[t*F+f] = (x[t*F+f] - m.mean[f]) / m.std[f]
		}
	}

	// Conv1d, zero ("same") padding.
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
				row := st.x[tt*F : (tt+1)*F]
				w := m.convW.w[wOff : wOff+F]
				for f, v := range row {
					z += w[f] * v
				}
			}
			st.convZ[t*C+c] = z
			st.convA[t*C+c] = 0
			if z > 0 {
				st.convA[t*C+c] = z
			}
		}
	}

	// LSTM over T steps.
	in := C + H
	prevH, prevC := st.zero, st.zero
	for t := 0; t < T; t++ {
		a := st.convA[t*C : (t+1)*C]
		for h := 0; h < H; h++ {
			var zi, zf, zo, zg float64
			rowI := (0*H + h) * in
			rowF := (1*H + h) * in
			rowO := (2*H + h) * in
			rowG := (3*H + h) * in
			wI, wF, wO, wG := m.lstmW.w[rowI:rowI+in], m.lstmW.w[rowF:rowF+in], m.lstmW.w[rowO:rowO+in], m.lstmW.w[rowG:rowG+in]
			for j, v := range a {
				zi += wI[j] * v
				zf += wF[j] * v
				zo += wO[j] * v
				zg += wG[j] * v
			}
			wI, wF, wO, wG = wI[C:], wF[C:], wO[C:], wG[C:]
			for j, v := range prevH {
				zi += wI[j] * v
				zf += wF[j] * v
				zo += wO[j] * v
				zg += wG[j] * v
			}
			gi := sigmoid(zi + m.lstmB.w[0*H+h])
			gf := sigmoid(zf + m.lstmB.w[1*H+h])
			gout := sigmoid(zo + m.lstmB.w[2*H+h])
			gg := tanh(zg + m.lstmB.w[3*H+h])
			cell := gf*prevC[h] + gi*gg
			ct := tanh(cell)
			i := t*H + h
			st.gi[i], st.gf[i], st.gout[i], st.gg[i] = gi, gf, gout, gg
			st.cell[i], st.cellTanh[i] = cell, ct
			st.hidden[i] = gout * ct
		}
		prevH, prevC = st.hidden[t*H:(t+1)*H], st.cell[t*H:(t+1)*H]
	}

	// Dense sigmoid head on the final hidden state.
	z := m.outB.w[0]
	for h, v := range prevH {
		z += m.outW.w[h] * v
	}
	st.prob = sigmoid(z)
	return st.prob
}

// backward accumulates gradients of the BCE loss for one sample, using
// st for its activations and accumulators.
func (m *Model) backward(st *state, x []float64, y float64) {
	T, F, C, K, H := m.cfg.SeqLen, m.cfg.Features, m.cfg.Filters, m.cfg.Kernel, m.cfg.Hidden
	m.forward(st, x)
	clear(st.dH)
	clear(st.dA)
	clear(st.dCNext)

	// dL/dlogit for BCE + sigmoid.
	dz := st.prob - y
	m.outB.g[0] += dz
	last := st.hidden[(T-1)*H:]
	dHLast := st.dH[(T-1)*H:]
	for h := 0; h < H; h++ {
		m.outW.g[h] += dz * last[h]
		dHLast[h] += dz * m.outW.w[h]
	}

	// BPTT.
	in := C + H
	for t := T - 1; t >= 0; t-- {
		prevH, prevC := st.zero, st.zero
		if t > 0 {
			prevH = st.hidden[(t-1)*H : t*H]
			prevC = st.cell[(t-1)*H : t*H]
		}
		a := st.convA[t*C : (t+1)*C]
		dA := st.dA[t*C : (t+1)*C]
		for h := 0; h < H; h++ {
			i := t*H + h
			dh := st.dH[i]
			ct := st.cellTanh[i]
			gout := st.gout[i]
			dc := st.dCNext[h] + dh*gout*(1-ct*ct)

			gi, gf, gg := st.gi[i], st.gf[i], st.gg[i]
			dzo := dh * ct * gout * (1 - gout)
			dzi := dc * gg * gi * (1 - gi)
			dzf := dc * prevC[h] * gf * (1 - gf)
			dzg := dc * gi * (1 - gg*gg)
			st.dCNext[h] = dc * gf

			m.lstmB.g[0*H+h] += dzi
			m.lstmB.g[1*H+h] += dzf
			m.lstmB.g[2*H+h] += dzo
			m.lstmB.g[3*H+h] += dzg

			rowI := (0*H + h) * in
			rowF := (1*H + h) * in
			rowO := (2*H + h) * in
			rowG := (3*H + h) * in
			wI, wF, wO, wG := m.lstmW.w[rowI:rowI+in], m.lstmW.w[rowF:rowF+in], m.lstmW.w[rowO:rowO+in], m.lstmW.w[rowG:rowG+in]
			gI, gF, gO, gG := m.lstmW.g[rowI:rowI+in], m.lstmW.g[rowF:rowF+in], m.lstmW.g[rowO:rowO+in], m.lstmW.g[rowG:rowG+in]
			for j, v := range a {
				gI[j] += dzi * v
				gF[j] += dzf * v
				gO[j] += dzo * v
				gG[j] += dzg * v
				dA[j] += dzi*wI[j] + dzf*wF[j] + dzo*wO[j] + dzg*wG[j]
			}
			wI, wF, wO, wG = wI[C:], wF[C:], wO[C:], wG[C:]
			gI, gF, gO, gG = gI[C:], gF[C:], gO[C:], gG[C:]
			for j, v := range prevH {
				gI[j] += dzi * v
				gF[j] += dzf * v
				gO[j] += dzo * v
				gG[j] += dzg * v
				if t > 0 {
					st.dH[(t-1)*H+j] += dzi*wI[j] + dzf*wF[j] + dzo*wO[j] + dzg*wG[j]
				}
			}
		}
	}

	// Conv backward (ReLU mask; input gradient not needed).
	half := K / 2
	for t := 0; t < T; t++ {
		for c := 0; c < C; c++ {
			if st.convZ[t*C+c] <= 0 {
				continue
			}
			g := st.dA[t*C+c]
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
				row := st.x[tt*F : (tt+1)*F]
				gw := m.convW.g[wOff : wOff+F]
				for f, v := range row {
					gw[f] += g * v
				}
			}
		}
	}
}

// PredictProba implements ml.Classifier. It is safe for concurrent use:
// each call takes a state from the model's pool.
func (m *Model) PredictProba(x []float64) float64 {
	st, _ := m.states.Get().(*state)
	if st == nil {
		st = m.newState()
	}
	p := m.forward(st, x)
	m.states.Put(st)
	return p
}
