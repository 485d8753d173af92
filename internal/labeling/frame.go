package labeling

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/ticket"
)

// IdentifyFrame resolves failure times for every ticketed drive
// present in f. Ticketed drives with no telemetry are skipped (they
// cannot contribute training samples); drives whose earliest ticket
// precedes all telemetry are labelled at their first tracking point.
// The tracking point closest to the IMT (earlier wins ties) is found by
// binary search on the drive's day column; when it lies more than
// theta days from the IMT the label falls back to IMT − theta, since
// the drive was certainly degrading by then and labelling any earlier
// would mix healthy-looking data into the positive class.
func IdentifyFrame(f *dataset.Frame, tickets *ticket.Store, theta int) (Labels, error) {
	if theta < 0 {
		return nil, fmt.Errorf("labeling: theta %d must be ≥ 0", theta)
	}
	labels := make(Labels)
	for _, sn := range tickets.SerialNumbers() {
		t, ok := tickets.First(sn)
		if !ok {
			continue
		}
		di, ok := f.DriveIndex(sn)
		if !ok {
			continue
		}
		d := f.Drive(di)
		day := closestDay(f, d, t.IMT)
		interval := t.IMT - day
		if interval < 0 {
			interval = -interval
		}
		label := Label{SerialNumber: sn, IMT: t.IMT, Interval: interval}
		if interval <= theta {
			label.FailDay = day
		} else {
			label.FailDay = t.IMT - theta
			label.Fallback = true
		}
		if label.FailDay < 0 {
			label.FailDay = 0
		}
		labels[sn] = label
	}
	return labels, nil
}

// closestDay returns the drive's observation day nearest to target
// (earlier wins ties). Frame drives always have at least one row.
func closestDay(f *dataset.Frame, d *dataset.FrameDrive, target int) int {
	lo, hi := int(d.Start), int(d.End)
	i := lo + sort.Search(hi-lo, func(k int) bool { return int(f.Day(lo+k)) >= target })
	switch {
	case i == lo:
		return int(f.Day(lo))
	case i == hi:
		return int(f.Day(hi - 1))
	}
	before, after := int(f.Day(i-1)), int(f.Day(i))
	if target-before <= after-target {
		return before
	}
	return after
}
