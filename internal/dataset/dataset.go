package dataset

import (
	"fmt"
	"sort"
)

// DriveSeries is the chronologically ordered telemetry of one drive.
type DriveSeries struct {
	SerialNumber string
	Vendor       string
	Model        string
	Records      []Record // sorted by Day, one per day at most
}

// MaxGap returns the largest interval (in days) between consecutive
// observations, or 0 for series with fewer than two records. A gap of 1
// means consecutive days.
func (s *DriveSeries) MaxGap() int {
	max := 0
	for i := 1; i < len(s.Records); i++ {
		if g := s.Records[i].Day - s.Records[i-1].Day; g > max {
			max = g
		}
	}
	return max
}

// Dataset is a collection of drive series keyed by serial number: the
// record form of telemetry that the simulator emits and online
// consumers walk. The batch pipeline runs on its columnar twin, Frame
// (convert with FrameFromDataset).
type Dataset struct {
	bySN  map[string]*DriveSeries
	order []string // serial numbers in insertion order

	// cumulated marks datasets whose W/B counts hold running totals
	// (carried over from a cumulated Frame by ToDataset), so converting
	// back with FrameFromDataset cannot lead to cumulating twice.
	cumulated bool
}

// New returns an empty dataset.
func New() *Dataset {
	return &Dataset{bySN: make(map[string]*DriveSeries)}
}

// Append adds r to the drive's series, keeping records sorted by day.
// Appending a second record for the same (drive, day) replaces the
// earlier one: re-observations within a day supersede.
func (d *Dataset) Append(r Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	s, ok := d.bySN[r.SerialNumber]
	if !ok {
		s = &DriveSeries{SerialNumber: r.SerialNumber, Vendor: r.Vendor, Model: r.Model}
		d.bySN[r.SerialNumber] = s
		d.order = append(d.order, r.SerialNumber)
	}
	if s.Vendor != r.Vendor || s.Model != r.Model {
		return fmt.Errorf("dataset: drive %s changes identity: have %s/%s, got %s/%s",
			r.SerialNumber, s.Vendor, s.Model, r.Vendor, r.Model)
	}
	i := sort.Search(len(s.Records), func(i int) bool { return s.Records[i].Day >= r.Day })
	if i < len(s.Records) && s.Records[i].Day == r.Day {
		s.Records[i] = r
		return nil
	}
	s.Records = append(s.Records, Record{})
	copy(s.Records[i+1:], s.Records[i:])
	s.Records[i] = r
	return nil
}

// Drives returns the number of drives in the dataset.
func (d *Dataset) Drives() int { return len(d.bySN) }

// Len returns the total number of records across all drives.
func (d *Dataset) Len() int {
	n := 0
	for _, s := range d.bySN {
		n += len(s.Records)
	}
	return n
}

// Series returns the series of drive sn, if present.
func (d *Dataset) Series(sn string) (*DriveSeries, bool) {
	s, ok := d.bySN[sn]
	return s, ok
}

// SerialNumbers returns all drive serial numbers in insertion order.
// The slice is a copy.
func (d *Dataset) SerialNumbers() []string {
	out := make([]string, len(d.order))
	copy(out, d.order)
	return out
}

// Each calls fn for every drive series in insertion order. fn must not
// add or remove drives.
func (d *Dataset) Each(fn func(*DriveSeries)) {
	for _, sn := range d.order {
		fn(d.bySN[sn])
	}
}
