// Package modelio serialises trained MFPA models to a versioned JSON
// envelope and back. This is the distribution path the paper describes
// for deployment: "the model is iterated every two months and pushed to
// the user for updates" — the server trains and Saves, the on-machine
// scorer (serve.Scorer) Loads and scores locally.
package modelio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/atomicio"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/ml/bayes"
	"repro/internal/ml/forest"
	"repro/internal/ml/gbdt"
	"repro/internal/ml/nn"
	"repro/internal/ml/svm"
)

// FormatVersion identifies the envelope layout; bump on breaking
// changes so old clients fail loudly instead of mis-scoring.
const FormatVersion = 1

// Envelope is the on-the-wire form of a trained model. The payload
// stays raw on the read side so the algorithm field can pick its
// concrete type before decoding.
type Envelope struct {
	Version   int             `json:"version"`
	Algorithm core.Algorithm  `json:"algorithm"`
	Group     string          `json:"group"`
	Vendor    string          `json:"vendor"`
	Threshold float64         `json:"threshold"`
	Width     int             `json:"width"`
	SeqLen    int             `json:"seq_len,omitempty"`
	Payload   json.RawMessage `json:"payload"`
}

// writeEnvelope mirrors Envelope field-for-field but carries the
// payload as the exported value itself, so Save/Marshal serialise it
// once in place instead of marshalling to a RawMessage and then
// re-validating those bytes inside the envelope marshal. The JSON
// produced is byte-identical to the RawMessage form.
type writeEnvelope struct {
	Version   int            `json:"version"`
	Algorithm core.Algorithm `json:"algorithm"`
	Group     string         `json:"group"`
	Vendor    string         `json:"vendor"`
	Threshold float64        `json:"threshold"`
	Width     int            `json:"width"`
	SeqLen    int            `json:"seq_len,omitempty"`
	Payload   any            `json:"payload"`
}

// Save writes a trained model to w through a buffered writer, so
// envelopes stream to files in large writes instead of the encoder's
// small fragments.
func Save(w io.Writer, m *core.Model) error {
	env, err := encode(m)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(env); err != nil {
		return fmt.Errorf("modelio: encode envelope: %w", err)
	}
	return bw.Flush()
}

// Marshal returns a trained model's envelope bytes.
func Marshal(m *core.Model) ([]byte, error) {
	env, err := encode(m)
	if err != nil {
		return nil, err
	}
	return json.Marshal(env)
}

// SaveFile atomically replaces path with the model's envelope: the
// bytes are staged in a same-directory temp file, fsynced, and renamed
// into place, so a crash mid-save leaves the previously published
// model intact rather than a torn envelope that clients reject.
func SaveFile(path string, m *core.Model) error {
	return atomicio.WriteFile(path, func(w io.Writer) error { return Save(w, m) })
}

// LoadFile reads a model envelope from path.
func LoadFile(path string) (*core.Model, error) {
	f, err := atomicio.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

func encode(m *core.Model) (*writeEnvelope, error) {
	var payload any
	switch clf := m.Classifier.(type) {
	case *forest.Model:
		payload = clf.Export()
	case *bayes.Model:
		payload = clf.Export()
	case *svm.Model:
		payload = clf.Export()
	case *gbdt.Model:
		payload = clf.Export()
	case interface{ Export() nn.Exported }:
		payload = clf.Export()
	default:
		return nil, fmt.Errorf("modelio: unsupported classifier %T", m.Classifier)
	}
	env := &writeEnvelope{
		Version:   FormatVersion,
		Algorithm: m.Config.Algorithm,
		Group:     m.Config.Group.String(),
		Vendor:    m.Config.Vendor,
		Threshold: m.Threshold,
		Width:     m.Width,
		Payload:   payload,
	}
	if m.Config.Algorithm == core.AlgoCNNLSTM {
		env.SeqLen = m.Config.SeqLen
	}
	return env, nil
}

// Load reads a model envelope from r through a buffered reader.
func Load(r io.Reader) (*core.Model, error) {
	var env Envelope
	dec := json.NewDecoder(bufio.NewReader(r))
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("modelio: decode envelope: %w", err)
	}
	return decode(&env)
}

// Unmarshal reconstructs a model from envelope bytes.
func Unmarshal(data []byte) (*core.Model, error) {
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("modelio: decode envelope: %w", err)
	}
	return decode(&env)
}

func decode(env *Envelope) (*core.Model, error) {
	if env.Version != FormatVersion {
		return nil, fmt.Errorf("modelio: envelope version %d, want %d", env.Version, FormatVersion)
	}
	group, ok := features.ParseGroup(env.Group)
	if !ok {
		return nil, fmt.Errorf("modelio: unknown feature group %q", env.Group)
	}
	if env.Threshold <= 0 || env.Threshold >= 1 {
		return nil, fmt.Errorf("modelio: threshold %g out of (0,1)", env.Threshold)
	}

	var clf ml.Classifier
	switch env.Algorithm {
	case core.AlgoRF:
		var e forest.Exported
		if err := json.Unmarshal(env.Payload, &e); err != nil {
			return nil, fmt.Errorf("modelio: RF payload: %w", err)
		}
		m, err := forest.Import(e)
		if err != nil {
			return nil, err
		}
		clf = m
	case core.AlgoBayes:
		var e bayes.Exported
		if err := json.Unmarshal(env.Payload, &e); err != nil {
			return nil, fmt.Errorf("modelio: Bayes payload: %w", err)
		}
		m, err := bayes.Import(e)
		if err != nil {
			return nil, err
		}
		clf = m
	case core.AlgoSVM:
		var e svm.Exported
		if err := json.Unmarshal(env.Payload, &e); err != nil {
			return nil, fmt.Errorf("modelio: SVM payload: %w", err)
		}
		m, err := svm.Import(e)
		if err != nil {
			return nil, err
		}
		clf = m
	case core.AlgoGBDT:
		var e gbdt.Exported
		if err := json.Unmarshal(env.Payload, &e); err != nil {
			return nil, fmt.Errorf("modelio: GBDT payload: %w", err)
		}
		m, err := gbdt.Import(e)
		if err != nil {
			return nil, err
		}
		clf = m
	case core.AlgoCNNLSTM:
		var e nn.Exported
		if err := json.Unmarshal(env.Payload, &e); err != nil {
			return nil, fmt.Errorf("modelio: CNN_LSTM payload: %w", err)
		}
		m, err := nn.Import(e)
		if err != nil {
			return nil, err
		}
		clf = m
	default:
		return nil, fmt.Errorf("modelio: unknown algorithm %q", env.Algorithm)
	}

	cfg := core.DefaultConfig(env.Vendor)
	cfg.Group = group
	cfg.Algorithm = env.Algorithm
	if env.SeqLen > 0 {
		cfg.SeqLen = env.SeqLen
	}
	return &core.Model{
		Config:      cfg,
		Classifier:  clf,
		TrainerName: string(env.Algorithm),
		Width:       env.Width,
		Threshold:   env.Threshold,
	}, nil
}
