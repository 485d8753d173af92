package dataset

import (
	"strings"
	"testing"
)

// FuzzReadCSV asserts the CSV reader never panics and either errors or
// returns structurally valid telemetry.
func FuzzReadCSV(f *testing.F) {
	d := New()
	r := rec("A", 1)
	_ = d.Append(r)
	var sb strings.Builder
	_ = WriteCSV(&sb, d)
	f.Add(sb.String())
	f.Add("")
	f.Add("sn,vendor\n")
	f.Add(strings.Repeat("x,", 53) + "x\n")
	f.Fuzz(func(t *testing.T, input string) {
		f, err := ReadCSVFrame(strings.NewReader(input))
		if err != nil {
			return
		}
		got := f.ToDataset()
		// Whatever parsed must satisfy the dataset invariants.
		got.Each(func(s *DriveSeries) {
			for i := 1; i < len(s.Records); i++ {
				if s.Records[i].Day <= s.Records[i-1].Day {
					t.Fatal("records not strictly day-ordered")
				}
			}
			for i := range s.Records {
				if err := s.Records[i].Validate(); err != nil {
					t.Fatalf("invalid record survived parsing: %v", err)
				}
			}
		})
	})
}
