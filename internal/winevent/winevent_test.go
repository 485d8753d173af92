package winevent

import "testing"

func TestCatalogueMatchesTableIII(t *testing.T) {
	want := []ID{7, 11, 15, 49, 51, 52, 154, 157, 161}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("catalogue has %d events, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("catalogue[%d].ID = %d, want %d", i, all[i].ID, id)
		}
		if all[i].Description == "" {
			t.Errorf("event %d has empty description", id)
		}
	}
}

func TestSelectedCountMatchesTableV(t *testing.T) {
	// Table V assigns 5 WindowsEvent features to the W column.
	if got := SelectedCount(); got != 5 {
		t.Fatalf("SelectedCount() = %d, want 5", got)
	}
	if got := len(Selected()); got != 5 {
		t.Fatalf("len(Selected()) = %d, want 5", got)
	}
	for _, info := range Selected() {
		if !info.Selected {
			t.Errorf("Selected() returned non-selected event %v", info.ID)
		}
	}
}

// Lookup returns the description of id and whether id is catalogued.
func Lookup(id ID) (Info, bool) {
	i, ok := indexByID[id]
	if !ok {
		return Info{}, false
	}
	return catalogue[i], true
}

func TestLookup(t *testing.T) {
	info, ok := Lookup(PagingError)
	if !ok {
		t.Fatal("Lookup(W_51) failed")
	}
	if info.ID != PagingError {
		t.Fatalf("Lookup returned ID %d", info.ID)
	}
	if _, ok := Lookup(ID(9999)); ok {
		t.Fatal("Lookup of unknown ID should fail")
	}
}

func TestIndexDenseAndStable(t *testing.T) {
	seen := make(map[int]bool)
	for _, info := range All() {
		idx := info.ID.Index()
		if idx < 0 || idx >= Count() {
			t.Fatalf("index %d out of range", idx)
		}
		if seen[idx] {
			t.Fatalf("duplicate index %d", idx)
		}
		seen[idx] = true
	}
}

func TestIndexPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Index of unknown ID should panic")
		}
	}()
	ID(9999).Index()
}

func TestLabel(t *testing.T) {
	if got := FileSystemIOError.Label(); got != "W_161" {
		t.Fatalf("Label = %q, want W_161", got)
	}
	if got := FileSystemIOError.String(); got != "W_161" {
		t.Fatalf("String = %q, want W_161", got)
	}
}

func TestCounts(t *testing.T) {
	c := NewCounts()
	if len(c) != Count() {
		t.Fatalf("NewCounts len = %d, want %d", len(c), Count())
	}
	c.Add(BadBlock, 2)
	c.Add(PagingError, 3)
	c.Add(BadBlock, 1)
	if got := c.Get(BadBlock); got != 3 {
		t.Errorf("Get(W_7) = %g, want 3", got)
	}
	if got := c.Total(); got != 6 {
		t.Errorf("Total = %g, want 6", got)
	}
}
