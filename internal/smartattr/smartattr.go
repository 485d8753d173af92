// Package smartattr defines the NVMe SMART attribute catalogue used by
// consumer M.2 SSDs in this reproduction.
//
// The catalogue mirrors Table II of the paper: vendors expose 15 SMART
// features plus capacity for M.2 drives. Each attribute carries
// semantic metadata (whether it is a monotonic counter or a gauge,
// whether higher values indicate worse health, and the vendor's default
// alarm threshold used by the classic SMART-threshold failure
// detector).
package smartattr

import "fmt"

// ID identifies one of the 16 SMART attributes of Table II.
type ID int

// The 16 SMART attributes reported for consumer M.2 NVMe SSDs
// (Table II of the paper). The numbering follows the paper's ID# column.
const (
	CriticalWarning         ID = iota + 1 // S_1: critical warning flags
	CompositeTemperature                  // S_2: composite temperature (Kelvin-offset gauge)
	AvailableSpare                        // S_3: remaining spare capacity (%)
	AvailableSpareThreshold               // S_4: spare threshold below which warning is raised (%)
	PercentageUsed                        // S_5: vendor estimate of life used (%)
	DataUnitsRead                         // S_6: 512,000-byte units read
	DataUnitsWritten                      // S_7: 512,000-byte units written
	HostReadCommands                      // S_8: host read commands completed
	HostWriteCommands                     // S_9: host write commands completed
	ControllerBusyTime                    // S_10: controller busy time (minutes)
	PowerCycles                           // S_11: power on/off cycles
	PowerOnHours                          // S_12: cumulative power-on hours
	UnsafeShutdowns                       // S_13: unclean power losses
	MediaErrors                           // S_14: media and data integrity errors
	ErrorLogEntries                       // S_15: error information log entry count
	Capacity                              // S_16: drive capacity (GB)
)

// Count is the number of SMART attributes in the catalogue.
const Count = 16

// Kind describes how an attribute evolves over a drive's lifetime.
type Kind int

const (
	// Counter attributes are monotonically non-decreasing
	// (e.g. PowerOnHours, MediaErrors).
	Counter Kind = iota
	// Gauge attributes move in both directions (e.g. temperature)
	// or change slowly in one direction (e.g. AvailableSpare).
	Gauge
	// Constant attributes do not change after manufacture
	// (e.g. Capacity, AvailableSpareThreshold).
	Constant
)

// Direction states which way an attribute moves as health degrades.
type Direction int

const (
	// HigherWorse means larger values indicate worse health.
	HigherWorse Direction = iota
	// LowerWorse means smaller values indicate worse health.
	LowerWorse
	// Neutral attributes carry workload or identity information only.
	Neutral
)

// Info is the static description of one SMART attribute.
type Info struct {
	ID        ID
	Name      string
	Kind      Kind
	Direction Direction
	// Threshold is the vendor alarm threshold used by the classic
	// SMART-threshold failure detector. For HigherWorse attributes the
	// alarm fires when the value exceeds Threshold; for LowerWorse when
	// it drops below. Zero means no vendor threshold is defined.
	Threshold float64
	// Unit is a human-readable unit string for reports.
	Unit string
}

// catalogue lists the attributes in ID order (index = ID-1).
var catalogue = [Count]Info{
	{CriticalWarning, "Critical Warning", Gauge, HigherWorse, 1, "flags"},
	{CompositeTemperature, "Composite Temperature", Gauge, HigherWorse, 358, "K"},
	{AvailableSpare, "Available Spare", Gauge, LowerWorse, 10, "%"},
	{AvailableSpareThreshold, "Available Spare Threshold", Constant, Neutral, 0, "%"},
	{PercentageUsed, "Percentage Used", Counter, HigherWorse, 100, "%"},
	{DataUnitsRead, "Data Units Read", Counter, Neutral, 0, "units"},
	{DataUnitsWritten, "Data Units Written", Counter, Neutral, 0, "units"},
	{HostReadCommands, "Host Read Commands", Counter, Neutral, 0, "cmds"},
	{HostWriteCommands, "Host Write Commands", Counter, Neutral, 0, "cmds"},
	{ControllerBusyTime, "Controller Busy Time", Counter, Neutral, 0, "min"},
	// Media errors, error-log entries, and unsafe shutdowns carry no
	// vendor alarm threshold: the NVMe critical-warning machinery only
	// reacts to spare depletion, temperature, and read-only mode, which
	// is precisely why the classic detector catches 3–10% of failures
	// (Section II) — most drives die without ever tripping it.
	{PowerCycles, "Power Cycles", Counter, Neutral, 0, "cycles"},
	{PowerOnHours, "Power On Hours", Counter, Neutral, 0, "h"},
	{UnsafeShutdowns, "Unsafe Shutdowns", Counter, HigherWorse, 0, "events"},
	{MediaErrors, "Error Media and Data Integrity Errors", Counter, HigherWorse, 0, "errors"},
	{ErrorLogEntries, "Number of Error Information Log Entries", Counter, HigherWorse, 0, "entries"},
	{Capacity, "Capacity", Constant, Neutral, 0, "GB"},
}

// All returns the full catalogue in ID order. The returned slice is a
// copy; callers may modify it freely.
func All() []Info {
	out := make([]Info, Count)
	copy(out[:], catalogue[:])
	return out
}

// Valid reports whether id names a catalogued attribute.
func (id ID) Valid() bool { return id >= 1 && id <= Count }

// Index converts the 1-based attribute ID into a 0-based vector index.
// It panics on invalid IDs.
func (id ID) Index() int {
	if !id.Valid() {
		panic(fmt.Sprintf("smartattr: invalid attribute ID %d", int(id)))
	}
	return int(id) - 1
}

// String returns the attribute's short name (e.g. "Power On Hours").
func (id ID) String() string {
	if !id.Valid() {
		return fmt.Sprintf("S_invalid(%d)", int(id))
	}
	return catalogue[id-1].Name
}

// Label returns the paper's compact label for the attribute, e.g. "S_12".
func (id ID) Label() string {
	if !id.Valid() {
		return fmt.Sprintf("S_invalid(%d)", int(id))
	}
	return fmt.Sprintf("S_%d", int(id))
}

// Values is a dense vector of the 16 SMART attribute values for one
// observation, indexed by ID.Index().
type Values [Count]float64

// Get returns the value of attribute id.
func (v *Values) Get(id ID) float64 { return v[id.Index()] }

// Set assigns the value of attribute id.
func (v *Values) Set(id ID, x float64) { v[id.Index()] = x }

// ExceedsThreshold reports whether any attribute with a vendor threshold
// is in its alarm region. This is the classic SMART-threshold failure
// detector that ships with consumer drives (Section II of the paper:
// 3–10% TPR, ~0.1% FPR).
func (v *Values) ExceedsThreshold() bool {
	for i := range catalogue {
		info := &catalogue[i]
		if info.Threshold == 0 || info.Direction == Neutral {
			continue
		}
		switch info.Direction {
		case HigherWorse:
			if v[i] >= info.Threshold {
				return true
			}
		case LowerWorse:
			if v[i] <= info.Threshold {
				return true
			}
		}
	}
	return false
}
