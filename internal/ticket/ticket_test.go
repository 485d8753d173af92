package ticket

import (
	"math"
	"strings"
	"testing"
)

func TestSharesSumToOne(t *testing.T) {
	var sum float64
	for _, c := range AllCauses() {
		if c.Share <= 0 {
			t.Errorf("cause %q has non-positive share %g", c.Name, c.Share)
		}
		sum += c.Share
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %g, want 1", sum)
	}
}

func TestLevelSharesMatchTableI(t *testing.T) {
	var drive, system float64
	for _, c := range AllCauses() {
		if c.Level == DriveLevel {
			drive += c.Share
		} else {
			system += c.Share
		}
	}
	if math.Abs(drive-0.3162) > 1e-9 {
		t.Errorf("drive-level share = %g, want 0.3162", drive)
	}
	if math.Abs(system-0.6838) > 1e-9 {
		t.Errorf("system-level share = %g, want 0.6838", system)
	}
}

func TestCategorySharesMatchTableI(t *testing.T) {
	cases := []struct {
		cat  Category
		want float64
	}{
		{ComponentsFailure, 0.3162},
		{BootShutdownFailure, 0.4822}, // the paper's "48.21% during startup/shutdown"
		{SystemRunningFailure, 0.1939},
		{ApplicationError, 0.0077},
	}
	for _, tc := range cases {
		var got float64
		for _, c := range AllCauses() {
			if c.Category == tc.cat {
				got += c.Share
			}
		}
		if math.Abs(got-tc.want) > 1e-4 {
			t.Errorf("share of %v = %g, want %g", tc.cat, got, tc.want)
		}
	}
}

func TestStringers(t *testing.T) {
	if DriveLevel.String() != "Drive Level" || SystemLevel.String() != "System Level" {
		t.Error("level names wrong")
	}
	if Level(9).String() == "" || Category(9).String() == "" {
		t.Error("unknown enum values must still render")
	}
}

func TestStoreAddAndLookup(t *testing.T) {
	s := NewStore()
	if s.Len() != 0 {
		t.Fatal("new store not empty")
	}
	s.Add(Ticket{SerialNumber: "A", IMT: 20, Cause: 0})
	s.Add(Ticket{SerialNumber: "A", IMT: 10, Cause: 1})
	s.Add(Ticket{SerialNumber: "B", IMT: 5, Cause: 2})
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	list := s.Lookup("A")
	if len(list) != 2 || list[0].IMT != 10 || list[1].IMT != 20 {
		t.Fatalf("Lookup(A) not IMT-sorted: %+v", list)
	}
	first, ok := s.First("A")
	if !ok || first.IMT != 10 {
		t.Fatalf("First(A) = %+v, %v", first, ok)
	}
	if _, ok := s.First("missing"); ok {
		t.Fatal("First(missing) should fail")
	}
	if got := s.SerialNumbers(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("SerialNumbers = %v", got)
	}
}

func TestStoreCounts(t *testing.T) {
	s := NewStore()
	s.Add(Ticket{SerialNumber: "A", IMT: 1, Cause: 0})  // drive level
	s.Add(Ticket{SerialNumber: "B", IMT: 2, Cause: 3})  // system level
	s.Add(Ticket{SerialNumber: "C", IMT: 3, Cause: 3})  // system level
	s.Add(Ticket{SerialNumber: "D", IMT: 4, Cause: 12}) // app error (system)
	byCause := s.CountByCause()
	if byCause[3] != 2 || byCause[0] != 1 || byCause[12] != 1 {
		t.Fatalf("CountByCause = %v", byCause)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := NewStore()
	s.Add(Ticket{SerialNumber: "B", IMT: 9, Cause: 3, Description: "blue screen"})
	s.Add(Ticket{SerialNumber: "A", IMT: 5, Cause: 0, Description: "drive, with comma"})
	s.Add(Ticket{SerialNumber: "A", IMT: 2, Cause: 12, Description: `quoted "text"`})

	var buf strings.Builder
	if err := WriteCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("round trip lost tickets: %d", got.Len())
	}
	list := got.Lookup("A")
	if len(list) != 2 || list[0].IMT != 2 || list[0].Description != `quoted "text"` {
		t.Fatalf("lookup(A) = %+v", list)
	}
	if first, _ := got.First("B"); first.Cause != 3 || first.Description != "blue screen" {
		t.Fatalf("B = %+v", first)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"wrong,header,layout,x\n",
		"sn,imt,cause,description\nA,notanint,0,d\n",
		"sn,imt,cause,description\nA,1,notanint,d\n",
		"sn,imt,cause,description\nA,1,999,d\n", // cause out of range
	}
	for i, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestStoreUntil(t *testing.T) {
	s := NewStore()
	s.Add(Ticket{SerialNumber: "A", IMT: 5, Cause: 0})
	s.Add(Ticket{SerialNumber: "B", IMT: 20, Cause: 0})
	cut := s.Until(10)
	if cut.Len() != 1 {
		t.Fatalf("len = %d, want 1", cut.Len())
	}
	if _, ok := cut.First("B"); ok {
		t.Fatal("future ticket leaked")
	}
	if s.Len() != 2 {
		t.Fatal("Until mutated the source")
	}
}
