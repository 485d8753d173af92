package dataset

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bsod"
	"repro/internal/smartattr"
	"repro/internal/winevent"
)

func TestCSVRoundTrip(t *testing.T) {
	d := buildSet(t, map[string][]int{"A": {0, 2, 5}, "B": {1, 3}})
	s, _ := d.Series("A")
	s.Records[1].Interpolated = true
	s.Records[1].BCounts[3] = 2.5

	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	f, err := ReadCSVFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := f.ToDataset()
	if got.Drives() != d.Drives() || got.Len() != d.Len() {
		t.Fatalf("round trip size mismatch: %d/%d vs %d/%d", got.Drives(), got.Len(), d.Drives(), d.Len())
	}
	gs, _ := got.Series("A")
	if !gs.Records[1].Interpolated {
		t.Error("interpolated flag lost")
	}
	if gs.Records[1].BCounts[3] != 2.5 {
		t.Error("B count lost precision")
	}
	if gs.Records[0].Firmware != "FW1" {
		t.Error("firmware lost")
	}
}

func TestCSVRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := New()
		for drive := 0; drive < 1+r.Intn(4); drive++ {
			sn := string(rune('A' + drive))
			day := 0
			for i := 0; i < 1+r.Intn(6); i++ {
				day += 1 + r.Intn(4)
				rr := rec(sn, day)
				for j := range rr.Smart {
					rr.Smart[j] = float64(r.Intn(1000)) / 8
				}
				for j := range rr.WCounts {
					rr.WCounts[j] = float64(r.Intn(5))
				}
				for j := range rr.BCounts {
					rr.BCounts[j] = float64(r.Intn(3))
				}
				if err := d.Append(rr); err != nil {
					return false
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, d); err != nil {
			return false
		}
		f, err := ReadCSVFrame(&buf)
		if err != nil {
			return false
		}
		got := f.ToDataset()
		if got.Len() != d.Len() || got.Drives() != d.Drives() {
			return false
		}
		equal := true
		d.Each(func(s *DriveSeries) {
			gs, ok := got.Series(s.SerialNumber)
			if !ok || len(gs.Records) != len(s.Records) {
				equal = false
				return
			}
			for i := range s.Records {
				a, b := &s.Records[i], &gs.Records[i]
				if a.Day != b.Day || a.Firmware != b.Firmware || a.Smart != b.Smart {
					equal = false
					return
				}
				for j := range a.WCounts {
					if a.WCounts[j] != b.WCounts[j] {
						equal = false
						return
					}
				}
				for j := range a.BCounts {
					if a.BCounts[j] != b.BCounts[j] {
						equal = false
						return
					}
				}
			}
		})
		return equal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestReadCSVRejectsBadHeader(t *testing.T) {
	in := "nope,header\n"
	if _, err := ReadCSVFrame(strings.NewReader(in)); err == nil {
		t.Fatal("bad header accepted")
	}
}

func TestReadCSVRejectsBadValues(t *testing.T) {
	d := buildSet(t, map[string][]int{"A": {0}})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Corrupt the day column of the data row.
	cells := strings.Split(lines[1], ",")
	cells[3] = "notaday"
	corrupted := lines[0] + "\n" + strings.Join(cells, ",") + "\n"
	if _, err := ReadCSVFrame(strings.NewReader(corrupted)); err == nil {
		t.Fatal("bad day value accepted")
	}
}

func TestHeaderShape(t *testing.T) {
	h := Header()
	want := 6 + 16 + winevent.Count() + bsod.Count()
	if len(h) != want {
		t.Fatalf("header has %d columns, want %d", len(h), want)
	}
	if h[0] != "sn" || h[6] != "S_1" {
		t.Fatalf("unexpected header layout: %v", h[:7])
	}
}

// WriteCSV writes the dataset to w, one row per record, drives in
// insertion order: the record-form reference for WriteCSVFrame's byte
// layout.
func WriteCSV(w io.Writer, d *Dataset) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(Header()); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	var err error
	d.Each(func(s *DriveSeries) {
		if err != nil {
			return
		}
		for i := range s.Records {
			if e := cw.Write(recordRow(&s.Records[i])); e != nil {
				err = fmt.Errorf("dataset: write record: %w", e)
				return
			}
		}
	})
	if err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

func recordRow(r *Record) []string {
	row := make([]string, 0, 6+smartattr.Count+winevent.Count()+bsod.Count())
	row = append(row,
		r.SerialNumber,
		r.Vendor,
		r.Model,
		strconv.Itoa(r.Day),
		strconv.FormatBool(r.Interpolated),
		string(r.Firmware),
	)
	for _, v := range r.Smart {
		row = append(row, formatFloat(v))
	}
	for _, v := range r.WCounts {
		row = append(row, formatFloat(v))
	}
	for _, v := range r.BCounts {
		row = append(row, formatFloat(v))
	}
	return row
}
