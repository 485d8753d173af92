package serve

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
)

// resumeRun is everything a served feed produces that a restart must
// reproduce.
type resumeRun struct {
	as      []Assessment
	stats   []SweepStats
	ledger  []QuarantineEntry
	drives  []string
	alarmed []bool
	last    []int
}

// finishRun feeds batches to s and collects its outputs; prefix holds
// what an earlier scorer produced for the batches before them.
func finishRun(t *testing.T, s *Scorer, batches [][]dataset.Record, prefix resumeRun) resumeRun {
	t.Helper()
	run := resumeRun{as: prefix.as, stats: prefix.stats}
	for _, batch := range batches {
		as, st, err := s.ObserveDay(batch)
		if err != nil {
			t.Fatal(err)
		}
		run.as = append(run.as, as...)
		run.stats = append(run.stats, st)
	}
	run.ledger = s.QuarantineReasons()
	run.drives = s.Drives()
	for _, sn := range run.drives {
		run.alarmed = append(run.alarmed, s.Alarmed(sn))
		last, _ := s.LastDay(sn)
		run.last = append(run.last, last)
	}
	return run
}

// quarantinedIn reports whether sn has an entry in ledger.
func quarantinedIn(ledger []QuarantineEntry, sn string) bool {
	for _, e := range ledger {
		if e.SerialNumber == sn {
			return true
		}
	}
	return false
}

// sameAssessments reports the first difference between two assessment
// streams, comparing probabilities by Float64bits.
func sameAssessments(got, want []Assessment) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d assessments, want %d", len(got), len(want))
	}
	for i := range got {
		a, b := got[i], want[i]
		pa, pb := a.Probability, b.Probability
		a.Probability, b.Probability = 0, 0
		if a != b || math.Float64bits(pa) != math.Float64bits(pb) {
			a.Probability, b.Probability = pa, pb
			return fmt.Errorf("assessment %d: %+v, want %+v", i, a, b)
		}
	}
	return nil
}

// sameRun reports the first difference between two runs, comparing
// probabilities by Float64bits.
func sameRun(got, want resumeRun) error {
	if err := sameAssessments(got.as, want.as); err != nil {
		return err
	}
	if !reflect.DeepEqual(got.stats, want.stats) {
		return fmt.Errorf("sweep stats %+v, want %+v", got.stats, want.stats)
	}
	if !reflect.DeepEqual(got.ledger, want.ledger) {
		return fmt.Errorf("ledger %+v, want %+v", got.ledger, want.ledger)
	}
	if !reflect.DeepEqual(got.drives, want.drives) || !reflect.DeepEqual(got.alarmed, want.alarmed) {
		return fmt.Errorf("drives or alarms differ")
	}
	for i, sn := range got.drives {
		// A quarantined drive's state restarts on restore.
		if !quarantinedIn(got.ledger, sn) && got.last[i] != want.last[i] {
			return fmt.Errorf("drive %s: last day %d, want %d", sn, got.last[i], want.last[i])
		}
	}
	return nil
}

// TestKillAndResumeMatchesUninterrupted: a scorer saved after any day,
// restored into a fresh scorer with another shard count and fed the
// rest of the window produces exactly the uninterrupted run, with and
// without a corruption campaign, at every worker/shard combination.
// The scorers run without registries, so every firmware version is
// coded in arrival order and the restore must re-prime those codes.
func TestKillAndResumeMatchesUninterrupted(t *testing.T) {
	fleet, model, _ := setup(t)
	clean := dayBatches(fleet, "I")
	dirty, clog := corruptBatches(clean, 17, 0.02)
	if len(clog) == 0 {
		t.Fatal("campaign injected nothing")
	}
	cuts := []int{1, 22, 45, 67}
	if cuts[len(cuts)-1] >= len(clean) {
		t.Fatalf("only %d day batches", len(clean))
	}
	otherShards := map[int]int{1: 7, 7: 32, 32: 1}
	policy := dataset.DefaultGapPolicy()

	for name, batches := range map[string][][]dataset.Record{"clean": clean, "corrupt": dirty} {
		for _, workers := range []int{1, 3} {
			for _, shards := range []int{1, 7, 32} {
				newScorer := func(shards int) *Scorer {
					s, err := New(model, Options{Workers: workers, Shards: shards, GapPolicy: policy})
					if err != nil {
						t.Fatal(err)
					}
					return s
				}
				straight := newScorer(shards)
				want := finishRun(t, straight, batches, resumeRun{})
				if len(straight.ext.UnknownFirmware()) == 0 {
					t.Fatal("feed coded no firmware in arrival order; the restore's re-priming is untested")
				}
				if name == "corrupt" && len(want.ledger) == 0 {
					t.Fatal("campaign quarantined nothing")
				}
				for _, cut := range cuts {
					first := newScorer(shards)
					prefix := finishRun(t, first, batches[:cut], resumeRun{})
					var buf bytes.Buffer
					if err := first.SaveState(&buf); err != nil {
						t.Fatal(err)
					}
					resumed := newScorer(otherShards[shards])
					if err := resumed.LoadState(&buf); err != nil {
						t.Fatalf("%s workers=%d shards=%d cut=%d: %v", name, workers, shards, cut, err)
					}
					got := finishRun(t, resumed, batches[cut:], prefix)
					if err := sameRun(got, want); err != nil {
						t.Fatalf("%s workers=%d shards=%d cut=%d: resumed run differs: %v", name, workers, shards, cut, err)
					}
				}
			}
		}
	}
}
