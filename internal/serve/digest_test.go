package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"testing"
)

// sessionDigest is the sha256 of the served session below. An output
// change made on purpose updates it and says why in CHANGES.md.
const sessionDigest = "bc168277729bed45332771d9a2558acc4c452f25937e10baff84097767102df6"

// TestServedSessionDigest pins one served session's output: the
// fixture's vendor-I day batches under a seeded corruption campaign,
// hashed as every assessment (probabilities by Float64bits), every
// batch's SweepStats and the final quarantine ledger. The digests are
// pinned on amd64 only: other architectures' compilers fuse x*y+z into
// one rounding, and math.Exp has an amd64 assembly path, so their last
// bits may differ.
func TestServedSessionDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest pinned on amd64; %s may fuse multiply-adds and has no amd64 math.Exp", runtime.GOARCH)
	}
	fleet, model, regs := setup(t)
	batches, _ := corruptBatches(dayBatches(fleet, "I"), 17, 0.02)
	s, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, batch := range batches {
		as, st, err := s.ObserveDay(batch)
		if err != nil {
			t.Fatal(err)
		}
		hashAssessments(h, as)
		fmt.Fprintf(h, "%+v\n", st)
	}
	for _, e := range s.QuarantineReasons() {
		fmt.Fprintf(h, "%s %d %d %s\n", e.SerialNumber, e.Day, e.Reason, e.Err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != sessionDigest {
		t.Fatalf("served session digest %s, pinned %s", got, sessionDigest)
	}
}

// hashAssessments writes each assessment's fields to h, the
// probability by its bits.
func hashAssessments(h hash.Hash, as []Assessment) {
	for i := range as {
		a := &as[i]
		fmt.Fprintf(h, "%s %d %x %t %t %d %t %t %t %t\n", a.SerialNumber, a.Day,
			math.Float64bits(a.Probability), a.Flagged, a.Interpolated, a.ConsecutiveFlags,
			a.Alarmed, a.Dropped, a.Quarantined, a.Degraded)
	}
}
