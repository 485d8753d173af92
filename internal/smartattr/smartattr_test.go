package smartattr

import (
	"fmt"
	"testing"
	"testing/quick"
)

// Lookup returns the static description of id.
// It panics if id is outside [1, Count]; attribute IDs are program
// constants, so an out-of-range ID is a programming error.
func Lookup(id ID) Info {
	if !id.Valid() {
		panic(fmt.Sprintf("smartattr: invalid attribute ID %d", int(id)))
	}
	return catalogue[id-1]
}

func TestCatalogueComplete(t *testing.T) {
	all := All()
	if len(all) != Count {
		t.Fatalf("All() returned %d attributes, want %d", len(all), Count)
	}
	seen := make(map[string]bool)
	for i, info := range all {
		if got := int(info.ID); got != i+1 {
			t.Errorf("attribute %d has ID %d, want %d", i, got, i+1)
		}
		if info.Name == "" {
			t.Errorf("attribute %d has empty name", i+1)
		}
		if seen[info.Name] {
			t.Errorf("duplicate attribute name %q", info.Name)
		}
		seen[info.Name] = true
	}
}

func TestTableIINames(t *testing.T) {
	// Spot-check the attribute names against Table II.
	want := map[ID]string{
		CriticalWarning:    "Critical Warning",
		PowerOnHours:       "Power On Hours",
		MediaErrors:        "Error Media and Data Integrity Errors",
		Capacity:           "Capacity",
		ControllerBusyTime: "Controller Busy Time",
	}
	for id, name := range want {
		if got := Lookup(id).Name; got != name {
			t.Errorf("Lookup(%d).Name = %q, want %q", id, got, name)
		}
	}
}

func TestIDHelpers(t *testing.T) {
	if !PowerOnHours.Valid() {
		t.Error("PowerOnHours should be valid")
	}
	if ID(0).Valid() || ID(Count+1).Valid() {
		t.Error("out-of-range IDs should be invalid")
	}
	if got := PowerOnHours.Index(); got != 11 {
		t.Errorf("PowerOnHours.Index() = %d, want 11", got)
	}
	if got := PowerOnHours.Label(); got != "S_12" {
		t.Errorf("PowerOnHours.Label() = %q, want S_12", got)
	}
	if got := ID(99).String(); got != "S_invalid(99)" {
		t.Errorf("invalid String() = %q", got)
	}
}

func TestLookupPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Lookup(0) should panic")
		}
	}()
	Lookup(0)
}

func TestIndexPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Index of invalid ID should panic")
		}
	}()
	ID(17).Index()
}

func TestValuesGetSet(t *testing.T) {
	var v Values
	v.Set(MediaErrors, 42)
	if got := v.Get(MediaErrors); got != 42 {
		t.Fatalf("Get = %g, want 42", got)
	}
	if got := v.Get(PowerOnHours); got != 0 {
		t.Fatalf("unset attribute = %g, want 0", got)
	}
}

func TestExceedsThreshold(t *testing.T) {
	healthy := Values{}
	healthy.Set(AvailableSpare, 100)
	healthy.Set(CompositeTemperature, 310)
	if healthy.ExceedsThreshold() {
		t.Error("healthy values should not exceed thresholds")
	}

	cases := []struct {
		name string
		set  func(*Values)
	}{
		{"critical warning", func(v *Values) { v.Set(CriticalWarning, 1) }},
		{"low spare", func(v *Values) { v.Set(AvailableSpare, 5); v.Set(CompositeTemperature, 310) }},
		{"overtemperature", func(v *Values) { v.Set(AvailableSpare, 100); v.Set(CompositeTemperature, 400) }},
	}
	for _, tc := range cases {
		var v Values
		tc.set(&v)
		if !v.ExceedsThreshold() {
			t.Errorf("%s: should exceed threshold", tc.name)
		}
	}
}

func TestNeutralAttributesNeverAlarm(t *testing.T) {
	// Workload counters must never trigger the threshold detector no
	// matter how large they grow.
	var v Values
	v.Set(AvailableSpare, 100)
	v.Set(CompositeTemperature, 310)
	v.Set(DataUnitsWritten, 1e15)
	v.Set(PowerOnHours, 1e9)
	v.Set(HostReadCommands, 1e18)
	// Media errors and error-log entries carry no vendor threshold —
	// the classic detector misses drives that die through them.
	v.Set(MediaErrors, 1e6)
	v.Set(ErrorLogEntries, 1e6)
	if v.ExceedsThreshold() {
		t.Error("unthresholded counters should never alarm")
	}
}

func TestLabelRoundTrip(t *testing.T) {
	f := func(raw uint8) bool {
		id := ID(int(raw)%Count + 1)
		return id.Label() == fmt.Sprintf("S_%d", int(id)) && id.Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
