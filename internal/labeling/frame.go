package labeling

import (
	"fmt"
	"sort"

	"repro/internal/ticket"
)

// DriveDays is what failure-time identification reads of telemetry:
// each drive's observation days, strictly increasing, looked up by
// serial number. A prepared dataset.Frame and a dataset.Plan's prepared
// day column both provide it.
type DriveDays interface {
	DriveIndex(sn string) (int, bool)
	Days(i int) []int32
}

// Identify resolves failure times for every ticketed drive present in
// src. Ticketed drives with no telemetry are skipped (they cannot
// contribute training samples); drives whose earliest ticket precedes
// all telemetry are labelled at their first tracking point. The
// tracking point closest to the IMT (Closest) is found by binary search
// on the drive's days; when it lies more than theta days from the IMT
// the label falls back to IMT − theta, since the drive was certainly
// degrading by then and labelling any earlier would mix healthy-looking
// data into the positive class.
func Identify(src DriveDays, tickets *ticket.Store, theta int) (Labels, error) {
	if theta < 0 {
		return nil, fmt.Errorf("labeling: theta %d must be ≥ 0", theta)
	}
	labels := make(Labels)
	for _, sn := range tickets.SerialNumbers() {
		t, ok := tickets.First(sn)
		if !ok {
			continue
		}
		di, ok := src.DriveIndex(sn)
		if !ok {
			continue
		}
		days := src.Days(di)
		day := int(days[Closest(days, t.IMT)])
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

// Closest returns the index of the day in days (non-empty, strictly
// increasing) nearest to target, the earlier day winning ties.
func Closest(days []int32, target int) int {
	n := len(days)
	i := sort.Search(n, func(k int) bool { return int(days[k]) >= target })
	switch {
	case i == 0:
		return 0
	case i == n:
		return n - 1
	}
	if target-int(days[i-1]) <= int(days[i])-target {
		return i - 1
	}
	return i
}
