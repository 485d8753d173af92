package labeling

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ticket"
)

// frameOf converts a test dataset to a frame, failing on error.
func frameOf(t *testing.T, d *dataset.Dataset) *dataset.Frame {
	t.Helper()
	f, err := dataset.FrameFromDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestIdentifyFrameMatchesIdentify fuzzes day layouts and ticket
// placements: the binary-search labelling over the frame's day column
// must agree with the record-path linear scan, including the
// earlier-day tie break on equidistant tracking points.
func TestIdentifyFrameMatchesIdentify(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		days := map[string][]int{}
		var tickets []ticket.Ticket
		drives := 1 + rng.Intn(6)
		for i := 0; i < drives; i++ {
			sn := string(rune('A' + i))
			day := rng.Intn(3)
			n := 1 + rng.Intn(15)
			for j := 0; j < n; j++ {
				days[sn] = append(days[sn], day)
				day += 1 + rng.Intn(6)
			}
			if rng.Intn(3) > 0 {
				tickets = append(tickets, ticket.Ticket{SerialNumber: sn, IMT: rng.Intn(day + 10)})
			}
		}
		data := buildData(t, days)
		store := storeWith(tickets...)
		theta := rng.Intn(10)
		want, err := identifyRef(data, store, theta)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Identify(frameOf(t, data), store, theta)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (theta=%d): frame labels %+v, want %+v", trial, theta, got, want)
		}
	}
}

func TestIdentifyFrameEquidistantPrefersEarlierDay(t *testing.T) {
	// Tracking points at 10 and 14, IMT 12: both are 2 away; the
	// record path takes the earlier day.
	data := buildData(t, map[string][]int{"A": {10, 14}})
	store := storeWith(ticket.Ticket{SerialNumber: "A", IMT: 12})
	want, err := identifyRef(data, store, 7)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Identify(frameOf(t, data), store, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got["A"].FailDay != 10 || !reflect.DeepEqual(got, want) {
		t.Fatalf("frame label %+v, record label %+v", got["A"], want["A"])
	}
}

func TestIdentifyFrameRejectsNegativeTheta(t *testing.T) {
	data := buildData(t, map[string][]int{"A": {1}})
	if _, err := Identify(frameOf(t, data), ticket.NewStore(), -1); err == nil {
		t.Fatal("negative θ accepted")
	}
}
