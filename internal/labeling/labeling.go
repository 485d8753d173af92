// Package labeling identifies the eventual failure time of faulty
// drives (the paper's Section III-C(2), Fig. 7). Consumer users do not
// seek repair immediately, so a trouble ticket's initial maintenance
// time (IMT) lags the actual failure; MFPA labels the tracking point
// closest to the IMT when that interval is at most θ, and falls back to
// IMT − θ otherwise. The paper sets θ = 7 through a sensitivity test
// (reproduced by the theta ablation bench).
package labeling

// DefaultTheta is the paper's θ threshold in days.
const DefaultTheta = 7

// Label is the resolved failure time of one faulty drive.
type Label struct {
	SerialNumber string
	// FailDay is the labelled failure day on the telemetry axis.
	FailDay int
	// IMT is the ticket's initial maintenance time.
	IMT int
	// Interval is |IMT − nearest tracking point| before resolution.
	Interval int
	// Fallback reports that the θ fallback (IMT − θ) was used because
	// no tracking point fell within θ of the IMT.
	Fallback bool
}

// Labels maps serial numbers to resolved failure labels. Drives absent
// from the map are healthy (no RaSRF ticket).
type Labels map[string]Label

// FaultySet returns the set of labelled (faulty) serial numbers.
func (l Labels) FaultySet() map[string]bool {
	out := make(map[string]bool, len(l))
	for sn := range l {
		out[sn] = true
	}
	return out
}

// Stats summarises a labelling pass for reports and the θ sensitivity
// experiment.
type Stats struct {
	Labelled  int
	Fallbacks int
	// MeanInterval is the average |IMT − tracking point| gap in days.
	MeanInterval float64
}

// Summarise computes labelling statistics.
func Summarise(l Labels) Stats {
	var s Stats
	var sum float64
	for _, lab := range l {
		s.Labelled++
		if lab.Fallback {
			s.Fallbacks++
		}
		sum += float64(lab.Interval)
	}
	if s.Labelled > 0 {
		s.MeanInterval = sum / float64(s.Labelled)
	}
	return s
}
