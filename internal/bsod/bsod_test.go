package bsod

import "testing"

func TestCatalogueMatchesTableIV(t *testing.T) {
	// Table IV lists 22 stop codes.
	if got := Count(); got != 22 {
		t.Fatalf("Count() = %d, want 22", got)
	}
	// Spot-check well-known codes.
	cases := []struct {
		code Code
		name string
	}{
		{PageFaultInNonpagedArea, "PAGE_FAULT_IN_NONPAGED_AREA"},
		{KernelDataInpageError, "KERNEL_DATA_INPAGE_ERROR"},
		{NTFSFileSystem, "NTFS_FILE_SYSTEM"},
		{StatusCannotLoad, "STATUS_CANNOT_LOAD"},
	}
	for _, tc := range cases {
		i, ok := indexByCode[tc.code]
		if !ok {
			t.Errorf("code %#x not catalogued", int(tc.code))
			continue
		}
		if name := catalogue[i].Name; name != tc.name {
			t.Errorf("code %#x is named %q, want %q", int(tc.code), name, tc.name)
		}
	}
}

func TestStorageRelatedSubset(t *testing.T) {
	var storage []Info
	for _, info := range All() {
		if info.StorageRelated {
			storage = append(storage, info)
		}
	}
	if len(storage) == 0 {
		t.Fatal("no storage-related codes")
	}
	if len(storage) >= Count() {
		t.Fatal("all codes marked storage-related; healthy machines need non-storage BSODs")
	}
	// The key pre-failure signals must be storage-related.
	for _, code := range []Code{PageFaultInNonpagedArea, KernelDataInpageError, NTFSFileSystem} {
		if !catalogue[code.Index()].StorageRelated {
			t.Errorf("%v should be storage-related", code)
		}
	}
}

func TestLabels(t *testing.T) {
	if got := PageFaultInNonpagedArea.Label(); got != "B_50" {
		t.Fatalf("Label = %q, want B_50", got)
	}
	if got := KernelDataInpageError.Label(); got != "B_7A" {
		t.Fatalf("Label = %q, want B_7A", got)
	}
}

func TestIndexDense(t *testing.T) {
	seen := make(map[int]bool)
	for _, info := range All() {
		idx := info.Code.Index()
		if idx < 0 || idx >= Count() || seen[idx] {
			t.Fatalf("bad or duplicate index %d for %v", idx, info.Code)
		}
		seen[idx] = true
	}
}

func TestIndexPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Index of unknown code should panic")
		}
	}()
	Code(0xDEADBEEF).Index()
}

func TestCounts(t *testing.T) {
	c := NewCounts()
	if len(c) != Count() {
		t.Fatalf("NewCounts len = %d, want %d", len(c), Count())
	}
	c.Add(PageFaultInNonpagedArea, 1)
	c.Add(KernelDataInpageError, 2)
	if got := c.Get(KernelDataInpageError); got != 2 {
		t.Errorf("Get = %g, want 2", got)
	}
	if got := c.Total(); got != 3 {
		t.Errorf("Total = %g, want 3", got)
	}
}

func TestValid(t *testing.T) {
	if !NTFSFileSystem.Valid() {
		t.Error("NTFS code should be valid")
	}
	if Code(0x1).Valid() {
		t.Error("0x1 should be invalid")
	}
}
