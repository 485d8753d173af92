package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/serve"
)

func nextULP(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }

// checkPass runs the serve_steady gate over one pass served as a single
// day batch.
func checkPass(got []serve.Assessment, ledger []serve.QuarantineEntry, offline map[driveDay]float64,
	corrupted []faultinject.Corruption, firstDay int) error {
	c := makeRef(offline, corrupted, firstDay).newCheck()
	if err := c.day(got); err != nil {
		return err
	}
	return c.finish(ledger)
}

// TestSteadyGateCatchesOneULP: a served probability one ULP away from
// the offline pipeline's fails the serve_steady gate.
func TestSteadyGateCatchesOneULP(t *testing.T) {
	offline := map[driveDay]float64{{"I-H000001", 10}: 0.25, {"I-H000002", 10}: 0.5, {"I-H000002", 9}: 0.125}
	got := []serve.Assessment{
		{SerialNumber: "I-H000001", Day: 10, Probability: 0.25},
		{SerialNumber: "I-H000002", Day: 10, Probability: 0.5},
	}
	if err := checkPass(got, nil, offline, nil, 10); err != nil {
		t.Fatalf("exact scores rejected: %v", err)
	}
	got[1].Probability = nextULP(got[1].Probability)
	err := checkPass(got, nil, offline, nil, 10)
	if err == nil || !strings.Contains(err.Error(), "gate serve_steady/offline-score") {
		t.Fatalf("one-ULP score accepted: %v", err)
	}
	if err := checkPass(got[:1], nil, offline, nil, 10); err == nil {
		t.Fatal("a drive-day scored offline but missing online was accepted")
	}
	got[1].Probability = 0.5
	extra := append(got, serve.Assessment{SerialNumber: "I-H000003", Day: 10, Probability: 0.75})
	if err := checkPass(extra, nil, offline, nil, 10); err == nil {
		t.Fatal("a drive-day absent offline was accepted for a drive never dropped")
	}
	extra = append(extra, serve.Assessment{SerialNumber: "I-H000003", Day: 30, Dropped: true})
	if err := checkPass(extra, nil, offline, nil, 10); err != nil {
		t.Fatalf("rows before a gap-policy drop rejected: %v", err)
	}
}

func TestSteadyGateQuarantine(t *testing.T) {
	corrupted := []faultinject.Corruption{
		{SerialNumber: "I-H000001", Day: 12, Kind: faultinject.KindNaNSmart},
		{SerialNumber: "I-H000002", Day: 12, Kind: faultinject.KindOutOfOrderDay},
	}
	right := []serve.QuarantineEntry{{SerialNumber: "I-H000001", Reason: serve.QuarantineBadValue}}
	if err := checkPass(nil, right, nil, corrupted, 10); err != nil {
		t.Fatalf("matching quarantine rejected: %v", err)
	}
	for _, tc := range []struct {
		ledger []serve.QuarantineEntry
		gate   string
	}{
		{nil, "touched-not-quarantined"},
		{[]serve.QuarantineEntry{{SerialNumber: "I-H000001", Reason: serve.QuarantineRollingError}}, "quarantine-reason"},
		{append(right, serve.QuarantineEntry{SerialNumber: "I-H000003", Reason: serve.QuarantineBadValue}), "untouched-quarantined"},
	} {
		err := checkPass(nil, tc.ledger, nil, corrupted, 10)
		if err == nil || !strings.Contains(err.Error(), tc.gate) {
			t.Errorf("ledger %+v: got %v, want gate %s", tc.ledger, err, tc.gate)
		}
	}
}

func TestRetrainGateCatchesOneULP(t *testing.T) {
	want := retrainOutput{tpr: 0.75, fpr: 0.01, threshold: 0.4, model: []byte("m")}
	if err := sameRetrain(want, want); err != nil {
		t.Fatal(err)
	}
	for _, got := range []retrainOutput{
		{tpr: nextULP(0.75), fpr: 0.01, threshold: 0.4, model: []byte("m")},
		{tpr: 0.75, fpr: nextULP(0.01), threshold: 0.4, model: []byte("m")},
		{tpr: 0.75, fpr: 0.01, threshold: nextULP(0.4), model: []byte("m")},
		{tpr: 0.75, fpr: 0.01, threshold: 0.4, model: []byte("n")},
	} {
		if err := sameRetrain(want, got); err == nil {
			t.Errorf("perturbed output %+v accepted", got)
		}
	}
}

func TestRestartGateCatchesOneULP(t *testing.T) {
	want := []serve.Assessment{{SerialNumber: "I-H000001", Day: 10, Probability: 0.3, Flagged: true}}
	got := append([]serve.Assessment(nil), want...)
	if err := sameAssessments(want, got); err != nil {
		t.Fatal(err)
	}
	got[0].Probability = nextULP(got[0].Probability)
	if err := sameAssessments(want, got); err == nil {
		t.Fatal("one-ULP first-day score accepted")
	}
	got[0].Probability, got[0].Flagged = want[0].Probability, false
	if err := sameAssessments(want, got); err == nil {
		t.Fatal("changed flag accepted")
	}
}
