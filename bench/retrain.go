package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/modelio"
	"repro/internal/simfleet"
	"repro/internal/ticket"
)

// retrain is the operator's model iteration: one operation reads the
// fleet's MFPAC telemetry file, trains every vendor's model on it (the
// paper trains one model per vendor), and marshals the models for
// deployment. Training all vendors also evens out how much a model's
// size, and so its cost, swings with the simulated fleet.
type retrain struct {
	path    string
	tickets *ticket.Store
	cfgs    []core.Config // one per vendor
	drives  int
	rows    int
	bytes   int64
	// first is the first iteration's output per vendor; every later
	// one, at any GOMAXPROCS, must equal it.
	first []retrainOutput
}

// retrainOutput is what one vendor's training produced: the values the
// gates compare between iterations, and the work counts.
type retrainOutput struct {
	tpr, fpr, threshold                  float64
	model                                []byte
	preparedRows, trainSamples, evalRows int
}

func setupRetrain(sz *sizes, o *options) (instance, error) {
	res, err := simfleet.SimulateFrame(sz.fleet)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(o.workDir, "retrain.mfpac")
	n, err := writeFrame(path, res.Frame)
	if err != nil {
		return nil, err
	}
	regs := registries(res.Config)
	r := &retrain{path: path, tickets: res.Tickets, drives: res.Frame.Drives(), rows: res.Frame.Len(), bytes: n}
	for _, v := range res.Config.Vendors {
		cfg := core.DefaultConfig(v.Name)
		cfg.Registries = regs
		r.cfgs = append(r.cfgs, cfg)
	}
	return r, nil
}

func (r *retrain) sizes() map[string]int {
	return map[string]int{"drives": r.drives, "drive_days": r.rows, "mfpac_bytes": int(r.bytes), "vendors": len(r.cfgs)}
}

func (r *retrain) summary() string {
	var b strings.Builder
	for i, out := range r.first {
		fmt.Fprintf(&b, "%s: tpr=%v fpr=%v threshold=%v model_bytes=%d; ",
			r.cfgs[i].Vendor, out.tpr, out.fpr, out.threshold, len(out.model))
	}
	return strings.TrimSuffix(b.String(), "; ")
}

func (r *retrain) run(m *meter, deadline time.Time) error {
	for {
		outs := make([]retrainOutput, 0, len(r.cfgs))
		err := m.op(func() (int, error) {
			f, err := call(m.tr, "dataset.read", func() (*dataset.Frame, error) { return readFrame(r.path) })
			if err != nil {
				return 0, err
			}
			for _, cfg := range r.cfgs {
				out, err := r.train(m, f, cfg)
				if err != nil {
					return 0, fmt.Errorf("vendor %s: %w", cfg.Vendor, err)
				}
				outs = append(outs, out)
			}
			return f.Len(), nil
		})
		if err != nil {
			return err
		}
		for _, out := range outs {
			m.count("dataset.prepared_rows", float64(out.preparedRows))
			m.count("core.train_samples", float64(out.trainSamples))
			m.count("ml.eval_rows", float64(out.evalRows))
			m.count("modelio.bytes", float64(len(out.model)))
		}
		if r.first == nil {
			r.first = outs
		} else {
			for i := range outs {
				if err := sameRetrain(r.first[i], outs[i]); err != nil {
					return fmt.Errorf("vendor %s: %w", r.cfgs[i].Vendor, err)
				}
			}
		}
		if !time.Now().Before(deadline) {
			return nil
		}
	}
}

// train trains and marshals one vendor's model, laying the stage times
// core reports out as child spans of the TrainOnFrame call.
func (r *retrain) train(m *meter, f *dataset.Frame, cfg core.Config) (retrainOutput, error) {
	id := m.tr.begin("core.train_on_frame")
	model, rep, err := core.TrainOnFrame(f, r.tickets, cfg)
	m.tr.end(id)
	if err != nil {
		return retrainOutput{}, err
	}
	m.tr.derive(id, []stage{
		{"dataset.prepare", rep.Prepared.CleanTime},
		{"labeling.identify", rep.Prepared.LabelTime},
		{"features.build", rep.SampleTime},
		{"core.train", rep.TrainTime},
		{"ml.eval", rep.EvalTime},
	})
	b, err := call(m.tr, "modelio.marshal", func() ([]byte, error) { return modelio.Marshal(model) })
	if err != nil {
		return retrainOutput{}, err
	}
	return retrainOutput{tpr: rep.Eval.TPR(), fpr: rep.Eval.FPR(), threshold: model.Threshold, model: b,
		preparedRows: rep.Prepared.RecordCount, trainSamples: rep.TrainSamples, evalRows: rep.TestSamples}, nil
}

// sameRetrain is the retrain gate: every iteration, at any GOMAXPROCS,
// evaluates and marshals bit-identically.
func sameRetrain(want, got retrainOutput) error {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case !same(want.tpr, got.tpr):
		return fmt.Errorf("gate retrain/tpr: %v, first iteration %v", got.tpr, want.tpr)
	case !same(want.fpr, got.fpr):
		return fmt.Errorf("gate retrain/fpr: %v, first iteration %v", got.fpr, want.fpr)
	case !same(want.threshold, got.threshold):
		return fmt.Errorf("gate retrain/threshold: %v, first iteration %v", got.threshold, want.threshold)
	case !bytes.Equal(want.model, got.model):
		return fmt.Errorf("gate retrain/model-bytes: marshalled model differs from the first iteration's")
	}
	return nil
}

func (r *retrain) layerMetrics(m *meter, _ selfNs) map[string]float64 {
	out := make(map[string]float64)
	for _, name := range []string{"dataset.prepared_rows", "core.train_samples", "ml.eval_rows", "modelio.bytes"} {
		out[name] = m.perOp(name)
	}
	return out
}
