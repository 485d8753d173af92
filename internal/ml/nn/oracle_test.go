package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// The CNN_LSTM's reference pass: one [][]float64 per activation and
// fresh buffers per sample. The flat pass in cnnlstm.go, which reuses
// one set of buffers, must match it bit for bit: probabilities and
// every parameter gradient.

// oracleScale returns the z-scored input as a T×F matrix.
func oracleScale(m *Model, x []float64) [][]float64 {
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

// oracleState captures the activations needed for backprop.
type oracleState struct {
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

// oracleForward runs the network on raw input x.
func oracleForward(m *Model, x []float64) *oracleState {
	T, F, C, K, H := m.cfg.SeqLen, m.cfg.Features, m.cfg.Filters, m.cfg.Kernel, m.cfg.Hidden
	st := &oracleState{x: oracleScale(m, x)}

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

// oracleBackward accumulates gradients of the BCE loss for one sample
// into m's parameter gradients.
func oracleBackward(m *Model, x []float64, y float64) {
	T, F, C, K, H := m.cfg.SeqLen, m.cfg.Features, m.cfg.Filters, m.cfg.Kernel, m.cfg.Hidden
	st := oracleForward(m, x)

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

func make2d(rows, cols int) [][]float64 {
	backing := make([]float64, rows*cols)
	out := make([][]float64, rows)
	for i := range out {
		out[i] = backing[i*cols : (i+1)*cols]
	}
	return out
}

// randomNet builds a network with random weights and a random input
// scaler.
func randomNet(seqLen, kernel int, seed int64) *Model {
	cfg := CNNLSTMTrainer{SeqLen: seqLen, Features: 4, Filters: 3, Kernel: kernel, Hidden: 5}
	r := rand.New(rand.NewSource(seed))
	m := newModel(&cfg, r)
	m.mean = make([]float64, cfg.Features)
	m.std = make([]float64, cfg.Features)
	for f := range m.mean {
		m.mean[f] = r.NormFloat64()
		m.std[f] = 0.5 + r.Float64()
	}
	return m
}

// cloneNet deep-copies a network: weights, gradients, Adam moments and
// scaler.
func cloneNet(m *Model) *Model {
	cp := func(p *param) *param {
		return &param{
			w: append([]float64(nil), p.w...),
			g: append([]float64(nil), p.g...),
			m: append([]float64(nil), p.m...),
			v: append([]float64(nil), p.v...),
		}
	}
	return &Model{
		cfg:   m.cfg,
		convW: cp(m.convW), convB: cp(m.convB),
		lstmW: cp(m.lstmW), lstmB: cp(m.lstmB),
		outW: cp(m.outW), outB: cp(m.outB),
		mean: append([]float64(nil), m.mean...),
		std:  append([]float64(nil), m.std...),
	}
}

// sameParams fails unless both networks' weights and gradients are
// Float64bits-equal.
func sameParams(t *testing.T, what string, got, want *Model) {
	t.Helper()
	names := []string{"convW", "convB", "lstmW", "lstmB", "outW", "outB"}
	wp := want.params()
	for pi, p := range got.params() {
		for i := range p.w {
			if math.Float64bits(p.w[i]) != math.Float64bits(wp[pi].w[i]) {
				t.Fatalf("%s: %s.w[%d] = %v, oracle %v", what, names[pi], i, p.w[i], wp[pi].w[i])
			}
			if math.Float64bits(p.g[i]) != math.Float64bits(wp[pi].g[i]) {
				t.Fatalf("%s: %s.g[%d] = %v, oracle %v", what, names[pi], i, p.g[i], wp[pi].g[i])
			}
		}
	}
}

// TestFlatPassMatchesOracle pins the flat forward/backward pass to the
// reference pass bit for bit, across sequence lengths and kernel
// widths (a kernel wider than the sequence included), with one state
// reused for every sample and through an Adam step.
func TestFlatPassMatchesOracle(t *testing.T) {
	for _, seqLen := range []int{1, 3, 5} {
		for _, kernel := range []int{1, 3} {
			t.Run(fmt.Sprintf("T%d_K%d", seqLen, kernel), func(t *testing.T) {
				m := randomNet(seqLen, kernel, int64(10*seqLen+kernel))
				ref := cloneNet(m)
				r := rand.New(rand.NewSource(int64(seqLen*kernel + 1)))
				x := make([]float64, seqLen*m.cfg.Features)
				st := m.newState()
				opt, refOpt := newAdam(1e-2), newAdam(1e-2)
				for step := 0; step < 2; step++ {
					for s := 0; s < 4; s++ {
						for i := range x {
							x[i] = 2 * r.NormFloat64()
						}
						y := float64(s % 2)
						if got, want := m.forward(st, x), oracleForward(ref, x).prob; math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("step %d sample %d: prob %v, oracle %v", step, s, got, want)
						}
						m.backward(st, x, y)
						oracleBackward(ref, x, y)
						sameParams(t, fmt.Sprintf("step %d sample %d", step, s), m, ref)
					}
					opt.update(m.params(), 4)
					refOpt.update(ref.params(), 4)
					sameParams(t, fmt.Sprintf("after Adam step %d", step), m, ref)
				}
			})
		}
	}
}

// TestPassesAllocateNothing checks that forward and backward on a
// reused state allocate nothing.
func TestPassesAllocateNothing(t *testing.T) {
	m := randomNet(5, 3, 1)
	x := make([]float64, 5*m.cfg.Features)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	st := m.newState()
	if n := testing.AllocsPerRun(100, func() { m.forward(st, x) }); n != 0 {
		t.Errorf("forward allocates %v times per sample", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.backward(st, x, 1) }); n != 0 {
		t.Errorf("backward allocates %v times per sample", n)
	}
}

// TestPredictProbaConcurrent scores from several goroutines at once
// through the model's state pool and checks every probability against
// the reference pass.
func TestPredictProbaConcurrent(t *testing.T) {
	m := randomNet(3, 3, 2)
	r := rand.New(rand.NewSource(3))
	xs := make([][]float64, 64)
	want := make([]float64, len(xs))
	for i := range xs {
		xs[i] = make([]float64, 3*m.cfg.Features)
		for j := range xs[i] {
			xs[i][j] = r.NormFloat64()
		}
		want[i] = oracleForward(m, xs[i]).prob
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i, x := range xs {
					if got := m.PredictProba(x); math.Float64bits(got) != math.Float64bits(want[i]) {
						t.Errorf("row %d: PredictProba %v, oracle %v", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
