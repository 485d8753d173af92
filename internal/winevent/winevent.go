// Package winevent catalogues the Windows system event IDs that the
// paper's Observation #3 identifies as early signals of SSD failure
// (Table III). In a consumer storage system these are harvested from the
// Windows Event Viewer; here they double as the emission channels of the
// fleet simulator.
package winevent

import "fmt"

// ID is a Windows event identifier (the numeric ID shown by Event Viewer).
type ID int

// Windows events tracked by the paper (Table III).
const (
	BadBlock          ID = 7   // W_7: the device has a bad block
	ControllerError   ID = 11  // W_11: the driver detected a controller error
	DiskNotReady      ID = 15  // W_15: the device is not ready for access yet
	CrashDumpPageFile ID = 49  // W_49: configuring the page file for crash dump failed
	PagingError       ID = 51  // W_51: an error was detected during a paging operation
	PredictedFailure  ID = 52  // W_52: the driver detected that the device predicted failure
	IOHardwareError   ID = 154 // W_154: an IO operation failed due to a hardware error
	SurpriseRemoval   ID = 157 // W_157: disk has been surprise-removed
	FileSystemIOError ID = 161 // W_161: file-system error during IO on database
)

// Info describes one catalogued Windows event.
type Info struct {
	ID          ID
	Description string
	// Selected reports whether the event is one of the five events the
	// paper's feature groups include (Table V uses 5 WindowsEvent
	// features; feature selection highlights W_11, W_49, W_51, W_161).
	Selected bool
}

var catalogue = []Info{
	{BadBlock, "The device has a bad block", false},
	{ControllerError, "The driver detected a controller error on Disk_i", true},
	{DiskNotReady, "The Disk_i is not ready for access yet", false},
	{CrashDumpPageFile, "Configuring the page file for crash dump fails", true},
	{PagingError, "An error is detected on device during a paging operation", true},
	{PredictedFailure, "The driver detects that device has predicted it will fail", true},
	{IOHardwareError, "The IO operation at logical block address fails due to a hardware error", false},
	{SurpriseRemoval, "Disk has been surprisingly removed", false},
	{FileSystemIOError, "File System error during IO on database", true},
}

var indexByID = func() map[ID]int {
	m := make(map[ID]int, len(catalogue))
	for i, info := range catalogue {
		m[info.ID] = i
	}
	return m
}()

// Count is the number of catalogued Windows events (all of Table III).
func Count() int { return len(catalogue) }

// SelectedCount is the number of events included in the paper's feature
// groups (the "5" in Table V's WindowsEvent column).
func SelectedCount() int {
	n := 0
	for _, info := range catalogue {
		if info.Selected {
			n++
		}
	}
	return n
}

// All returns the catalogue in table order. The slice is a copy.
func All() []Info {
	out := make([]Info, len(catalogue))
	copy(out, catalogue)
	return out
}

// Selected returns the events included in the paper's feature groups,
// in table order.
func Selected() []Info {
	out := make([]Info, 0, SelectedCount())
	for _, info := range catalogue {
		if info.Selected {
			out = append(out, info)
		}
	}
	return out
}

// Index returns the dense 0-based position of id within the catalogue,
// used to index per-event count vectors. It panics on unknown IDs:
// event IDs are program constants.
func (id ID) Index() int {
	i, ok := indexByID[id]
	if !ok {
		panic(fmt.Sprintf("winevent: unknown event ID %d", int(id)))
	}
	return i
}

// Valid reports whether id is catalogued.
func (id ID) Valid() bool {
	_, ok := indexByID[id]
	return ok
}

// Label returns the paper's compact label, e.g. "W_161".
func (id ID) Label() string { return fmt.Sprintf("W_%d", int(id)) }

// String returns the label for use in logs and reports.
func (id ID) String() string { return id.Label() }

// Counts is a dense per-day count vector over the full catalogue,
// indexed by ID.Index().
type Counts []float64

// NewCounts returns a zeroed count vector sized for the catalogue.
func NewCounts() Counts { return make(Counts, len(catalogue)) }

// Add increments the count of event id by n.
func (c Counts) Add(id ID, n float64) { c[id.Index()] += n }

// Get returns the count of event id.
func (c Counts) Get(id ID) float64 { return c[id.Index()] }

// Total returns the sum over all events.
func (c Counts) Total() float64 {
	var t float64
	for _, v := range c {
		t += v
	}
	return t
}
