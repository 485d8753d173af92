package core

import (
	"testing"

	"repro/internal/simfleet"
)

// BenchmarkTrainOnFrame is one vendor's retrain on the test fleet:
// preparation, labelling, extraction, training and evaluation. Its
// B/op is the allocation volume of the training path.
func BenchmarkTrainOnFrame(b *testing.B) {
	cfg := simfleet.TinyConfig()
	cfg.FailureScale = 0.05
	fleet, err := simfleet.SimulateFrame(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := TrainOnFrame(fleet.Frame, fleet.Tickets, DefaultConfig("I")); err != nil {
			b.Fatal(err)
		}
	}
}
