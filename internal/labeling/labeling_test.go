package labeling

import (
	"fmt"
	"testing"

	"repro/internal/bsod"
	"repro/internal/dataset"
	"repro/internal/ticket"
	"repro/internal/winevent"
)

func buildData(t *testing.T, days map[string][]int) *dataset.Dataset {
	t.Helper()
	d := dataset.New()
	for sn, list := range days {
		for _, day := range list {
			r := dataset.Record{
				SerialNumber: sn,
				Vendor:       "I",
				Model:        "M",
				Day:          day,
				Firmware:     "FW",
				WCounts:      winevent.NewCounts(),
				BCounts:      bsod.NewCounts(),
			}
			if err := d.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	return d
}

// closestRef returns the record of a non-empty series whose day is
// nearest to day, the earlier record winning ties.
func closestRef(s *dataset.DriveSeries, day int) *dataset.Record {
	dist := func(r *dataset.Record) int { return max(r.Day-day, day-r.Day) }
	best := &s.Records[0]
	for i := range s.Records {
		if r := &s.Records[i]; dist(r) < dist(best) {
			best = r
		}
	}
	return best
}

// identifyRef is the record-form failure-time identification, kept as
// the oracle IdentifyFrame is pinned against: a linear DriveSeries
// walk instead of a binary search over the day column.
func identifyRef(data *dataset.Dataset, tickets *ticket.Store, theta int) (Labels, error) {
	if theta < 0 {
		return nil, fmt.Errorf("labeling: theta %d must be ≥ 0", theta)
	}
	labels := make(Labels)
	for _, sn := range tickets.SerialNumbers() {
		t, ok := tickets.First(sn)
		if !ok {
			continue
		}
		series, ok := data.Series(sn)
		if !ok || len(series.Records) == 0 {
			continue
		}
		rec := closestRef(series, t.IMT)
		interval := t.IMT - rec.Day
		if interval < 0 {
			interval = -interval
		}
		label := Label{SerialNumber: sn, IMT: t.IMT, Interval: interval}
		if interval <= theta {
			// The tracking point closest to the IMT is the failure time.
			label.FailDay = rec.Day
		} else {
			// Fall back to IMT − θ: the drive was certainly already
			// degrading by then, and labelling any earlier would mix
			// healthy-looking data into the positive class.
			label.FailDay = t.IMT - theta
			label.Fallback = true
		}
		if label.FailDay < 0 {
			label.FailDay = 0
		}
		labels[sn] = label
	}
	return labels, nil
}

func storeWith(tickets ...ticket.Ticket) *ticket.Store {
	s := ticket.NewStore()
	for _, tk := range tickets {
		s.Add(tk)
	}
	return s
}

func TestIdentifyClosePoint(t *testing.T) {
	// Last record on day 20; IMT on day 24 → interval 4 ≤ θ=7 → label
	// the closest tracking point (day 20).
	data := buildData(t, map[string][]int{"A": {10, 15, 20}})
	labels, err := IdentifyFrame(frameOf(t, data), storeWith(ticket.Ticket{SerialNumber: "A", IMT: 24}), 7)
	if err != nil {
		t.Fatal(err)
	}
	lbl, ok := labels["A"]
	if !ok {
		t.Fatal("drive A not labelled")
	}
	if lbl.FailDay != 20 {
		t.Fatalf("FailDay = %d, want 20", lbl.FailDay)
	}
	if lbl.Fallback {
		t.Fatal("close point should not use the fallback")
	}
	if lbl.Interval != 4 {
		t.Fatalf("Interval = %d, want 4", lbl.Interval)
	}
}

func TestIdentifyFallback(t *testing.T) {
	// Last record on day 10; IMT on day 30 → interval 20 > θ=7 →
	// fall back to IMT − θ = 23.
	data := buildData(t, map[string][]int{"A": {5, 10}})
	labels, err := IdentifyFrame(frameOf(t, data), storeWith(ticket.Ticket{SerialNumber: "A", IMT: 30}), 7)
	if err != nil {
		t.Fatal(err)
	}
	lbl := labels["A"]
	if !lbl.Fallback {
		t.Fatal("expected fallback")
	}
	if lbl.FailDay != 23 {
		t.Fatalf("FailDay = %d, want 23", lbl.FailDay)
	}
}

func TestIdentifyClampsAtZero(t *testing.T) {
	data := buildData(t, map[string][]int{"A": {50}})
	// IMT 3 with θ 7 → fallback would be negative → clamp to 0. The
	// closest record (day 50) is 47 away, so the fallback path fires.
	labels, err := IdentifyFrame(frameOf(t, data), storeWith(ticket.Ticket{SerialNumber: "A", IMT: 3}), 7)
	if err != nil {
		t.Fatal(err)
	}
	if lbl := labels["A"]; lbl.FailDay != 0 {
		t.Fatalf("FailDay = %d, want clamped 0", lbl.FailDay)
	}
}

func TestIdentifySkipsDrivesWithoutTelemetry(t *testing.T) {
	data := buildData(t, map[string][]int{"A": {1}})
	labels, err := IdentifyFrame(frameOf(t, data), storeWith(ticket.Ticket{SerialNumber: "GHOST", IMT: 5}), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 0 {
		t.Fatalf("labelled %d drives, want 0", len(labels))
	}
}

func TestIdentifyUsesEarliestTicket(t *testing.T) {
	data := buildData(t, map[string][]int{"A": {10, 20, 30}})
	labels, err := IdentifyFrame(frameOf(t, data), storeWith(
		ticket.Ticket{SerialNumber: "A", IMT: 32},
		ticket.Ticket{SerialNumber: "A", IMT: 12},
	), 7)
	if err != nil {
		t.Fatal(err)
	}
	if lbl := labels["A"]; lbl.IMT != 12 {
		t.Fatalf("IMT = %d, want earliest 12", lbl.IMT)
	}
}

func TestIdentifyRejectsNegativeTheta(t *testing.T) {
	data := buildData(t, map[string][]int{"A": {1}})
	if _, err := IdentifyFrame(frameOf(t, data), ticket.NewStore(), -1); err == nil {
		t.Fatal("negative θ accepted")
	}
}

func TestThetaZeroIsExact(t *testing.T) {
	// θ=0: only a tracking point exactly on the IMT qualifies.
	data := buildData(t, map[string][]int{"A": {10}})
	labels, err := IdentifyFrame(frameOf(t, data), storeWith(ticket.Ticket{SerialNumber: "A", IMT: 10}), 0)
	if err != nil {
		t.Fatal(err)
	}
	if lbl := labels["A"]; lbl.Fallback || lbl.FailDay != 10 {
		t.Fatalf("label = %+v", lbl)
	}
}

func TestSummarise(t *testing.T) {
	l := Labels{
		"A": {Interval: 2},
		"B": {Interval: 10, Fallback: true},
	}
	s := Summarise(l)
	if s.Labelled != 2 || s.Fallbacks != 1 || s.MeanInterval != 6 {
		t.Fatalf("stats = %+v", s)
	}
	if empty := Summarise(Labels{}); empty.MeanInterval != 0 {
		t.Fatal("empty labels should have zero mean interval")
	}
}

// FaultySet returns the set of labelled (faulty) serial numbers.
func (l Labels) FaultySet() map[string]bool {
	out := make(map[string]bool, len(l))
	for sn := range l {
		out[sn] = true
	}
	return out
}

func TestFaultySet(t *testing.T) {
	l := Labels{"A": {}, "B": {}}
	set := l.FaultySet()
	if !set["A"] || !set["B"] || set["C"] {
		t.Fatalf("FaultySet = %v", set)
	}
}
