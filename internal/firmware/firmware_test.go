package firmware

import (
	"strings"
	"testing"
)

func validReleases() []Release {
	return []Release{
		{Version: "FW1", Seq: 1, HazardMultiplier: 2.0, ShipShare: 0.5},
		{Version: "FW2", Seq: 2, HazardMultiplier: 1.0, ShipShare: 0.3},
		{Version: "FW3", Seq: 3, HazardMultiplier: 0.5, ShipShare: 0.2},
	}
}

func TestNewRegistry(t *testing.T) {
	r, err := NewRegistry("I", validReleases())
	if err != nil {
		t.Fatal(err)
	}
	if r.vendor != "I" {
		t.Errorf("vendor = %q", r.vendor)
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}
	rel, ok := r.ByVersion("FW3")
	if !ok || rel.Seq != 3 {
		t.Errorf("ByVersion(FW3) = %+v, %v", rel, ok)
	}
	if _, ok := r.ByVersion("nope"); ok {
		t.Error("ByVersion(nope) should miss")
	}
}

func TestRegistrySortsBySeq(t *testing.T) {
	rels := []Release{
		{Version: "B", Seq: 2, HazardMultiplier: 1, ShipShare: 0.5},
		{Version: "A", Seq: 1, HazardMultiplier: 1, ShipShare: 0.5},
	}
	r, err := NewRegistry("V", rels)
	if err != nil {
		t.Fatal(err)
	}
	got := r.Releases()
	if got[0].Version != "A" || got[1].Version != "B" {
		t.Fatalf("releases not sorted: %+v", got)
	}
}

func TestNewRegistryErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func([]Release) []Release
		errPart string
	}{
		{"empty", func(r []Release) []Release { return nil }, "no releases"},
		{"dup seq", func(r []Release) []Release { r[1].Seq = 1; return r }, "duplicate seq"},
		{"dup version", func(r []Release) []Release { r[1].Version = "FW1"; return r }, "duplicate version"},
		{"zero hazard", func(r []Release) []Release { r[0].HazardMultiplier = 0; return r }, "hazard"},
		{"bad shares", func(r []Release) []Release { r[0].ShipShare = 0.9; return r }, "sum"},
		{"negative share", func(r []Release) []Release { r[0].ShipShare = -0.5; return r }, "negative"},
		{"bad seq", func(r []Release) []Release { r[0].Seq = 0; return r }, "seq"},
	}
	for _, tc := range cases {
		_, err := NewRegistry("V", tc.mutate(validReleases()))
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.errPart) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.errPart)
		}
	}
}

func TestMustNewRegistryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewRegistry should panic on invalid input")
		}
	}()
	MustNewRegistry("V", nil)
}

func TestLabel(t *testing.T) {
	r := MustNewRegistry("I", validReleases())
	if got := r.Label(2); got != "I_F_2" {
		t.Fatalf("Label = %q, want I_F_2", got)
	}
}

func TestEncoderPreservesReleaseOrder(t *testing.T) {
	r := MustNewRegistry("I", validReleases())
	e := NewEncoder(r)
	// Known versions encode to their sequence regardless of call order.
	if got := e.Encode("FW3"); got != 3 {
		t.Errorf("Encode(FW3) = %g, want 3", got)
	}
	if got := e.Encode("FW1"); got != 1 {
		t.Errorf("Encode(FW1) = %g, want 1", got)
	}
}

func TestEncoderUnknownVersions(t *testing.T) {
	r := MustNewRegistry("I", validReleases())
	e := NewEncoder(r)
	a := e.Encode("MYSTERY")
	b := e.Encode("OTHER")
	if a <= 3 || b <= 3 {
		t.Fatalf("unknown versions must encode after the known range: %g, %g", a, b)
	}
	if a == b {
		t.Fatal("distinct unknown versions share a code")
	}
	if again := e.Encode("MYSTERY"); again != a {
		t.Fatalf("encoding not stable: %g then %g", a, again)
	}
}

func TestEncoderWithoutRegistry(t *testing.T) {
	e := NewEncoder(nil)
	a := e.Encode("X")
	b := e.Encode("Y")
	if a != 1 || b != 2 {
		t.Fatalf("first-seen codes = %g, %g; want 1, 2", a, b)
	}
	if e.Encode("X") != 1 {
		t.Fatal("code for X changed")
	}
}
