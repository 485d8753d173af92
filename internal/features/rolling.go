package features

import (
	"fmt"

	"repro/internal/bsod"
	"repro/internal/dataset"
	"repro/internal/firmware"
	"repro/internal/smartattr"
	"repro/internal/winevent"
)

// This file is the incremental half of the feature pipeline: a
// per-drive RollingState that replays the offline preprocessing —
// discontinuity optimisation (mean-fill short gaps, drop drives with
// long ones) followed by the cumulative W/B transform and feature
// extraction — one observation at a time, in O(1) amortised work per
// drive-day. Advance is pinned bit-identical (math.Float64bits) to the
// feature rows BuildSampleSetFrame produces for the same drive-day:
//
//   - mean-fill uses the same element-wise (a+b)/2 of the two adjacent
//     raw daily observations, with the firmware version carried from
//     the earlier record, and the same synthetic record repeated for
//     every filled day;
//   - the running cumulates add each daily vector exactly once, in day
//     order — the same additions, in the same order, as the offline
//     cumulate stage of dataset.PreparePipeline;
//   - extraction is ExtractInto's field order over the cumulated view.
//
// The offline path drops a drive retroactively when any gap reaches
// DropGap; the online path can only drop it from the moment the gap is
// observed. Rows emitted before the drop are exactly the rows the
// offline pipeline would have produced had the series ended there.

// EmittedRow describes one feature row produced by Advance: the day it
// represents and whether it was synthesised by mean-fill rather than
// observed.
type EmittedRow struct {
	Day          int32
	Interpolated bool
}

// RollingWindow is the trailing-day capacity of the state's diagnostic
// ring buffers (daily W/B event totals and the MediaErrors attribute).
const RollingWindow = 8

// RollingState is one drive's incremental preprocessing state: the
// running W/B cumulates the model's features are built from, the
// previous raw daily observation (the left endpoint of a future
// mean-fill), last-seen/gap tracking, and fixed-size ring buffers of
// recent daily aggregates for diagnostics. The zero-allocating Advance
// methods make it cheap enough to keep one per drive for fleet-scale
// daily scoring.
//
// A RollingState is not safe for concurrent use; the serving layer
// shards drives so each state is only ever touched by one goroutine.
type RollingState struct {
	lastDay  int
	observed int // raw observations consumed
	rows     int // feature rows emitted (fills included)
	dropped  bool

	// Running cumulates over the (filled) series, full catalogue width.
	cumW, cumB []float64

	// Previous raw daily observation.
	prevSmart smartattr.Values
	prevFW    firmware.Version
	prevW     []float64
	prevB     []float64

	// Scratch for the synthetic mean record of a fill (computed once
	// per gap, applied to each filled day).
	fillSmart smartattr.Values
	fillW     []float64
	fillB     []float64

	// Diagnostic ring buffers over the last RollingWindow emitted days.
	ringDay   [RollingWindow]int32
	ringW     [RollingWindow]float64 // daily W event total
	ringB     [RollingWindow]float64 // daily B event total
	ringMedia [RollingWindow]float64 // MediaErrors attribute value
	ringLen   int
	ringPos   int // next write position
}

// NewRollingState returns an empty per-drive state.
func NewRollingState() *RollingState { return &RollingState{lastDay: -1} }

// LastDay returns the day of the most recent observation, -1 before the
// first.
func (st *RollingState) LastDay() int { return st.lastDay }

// Observed returns the number of raw observations consumed.
func (st *RollingState) Observed() int { return st.observed }

// Rows returns the number of feature rows emitted (mean-filled days
// included).
func (st *RollingState) Rows() int { return st.rows }

// Dropped reports that a gap of DropGap days or more was observed, so
// the offline pipeline would exclude this drive; once set, Advance
// consumes records without emitting rows.
func (st *RollingState) Dropped() bool { return st.dropped }

// CumW returns the running W cumulate (full catalogue width). The slice
// aliases state; callers must not modify it.
func (st *RollingState) CumW() []float64 { return st.cumW }

// CumB returns the running B cumulate. Aliases state.
func (st *RollingState) CumB() []float64 { return st.cumB }

// WindowStats summarises the trailing RollingWindow emitted days.
type WindowStats struct {
	// Days is how many emitted days the window holds (≤ RollingWindow).
	Days int
	// FirstDay and LastDay bound the window.
	FirstDay, LastDay int
	// WPerDay and BPerDay are the mean daily W/B event totals.
	WPerDay, BPerDay float64
	// MediaErrGrowth is the MediaErrors attribute change across the
	// window.
	MediaErrGrowth float64
}

// Window returns the trailing-window aggregates maintained by the ring
// buffers — the cheap per-drive health context (recent event rates,
// media-error growth) that alarms and CLIs report next to the model
// score.
func (st *RollingState) Window() WindowStats {
	var ws WindowStats
	n := st.ringLen
	if n == 0 {
		return ws
	}
	oldest := (st.ringPos - n + RollingWindow) % RollingWindow
	newest := (st.ringPos - 1 + RollingWindow) % RollingWindow
	var wSum, bSum float64
	for k := 0; k < n; k++ {
		i := (oldest + k) % RollingWindow
		wSum += st.ringW[i]
		bSum += st.ringB[i]
	}
	ws.Days = n
	ws.FirstDay = int(st.ringDay[oldest])
	ws.LastDay = int(st.ringDay[newest])
	ws.WPerDay = wSum / float64(n)
	ws.BPerDay = bSum / float64(n)
	ws.MediaErrGrowth = st.ringMedia[newest] - st.ringMedia[oldest]
	return ws
}

// Advance consumes one raw (daily-count) telemetry record, updates the
// rolling cumulates, and appends the resulting feature rows to x (each
// e.Width() long, mean-filled days first) with matching entries in
// meta. It returns the extended slices. A nil x skips extraction and
// only advances state — the bulk catch-up fast path. Records must
// arrive in strictly increasing day order.
//
// policy is the discontinuity optimisation: the zero value disables it
// (every record emits exactly one row, gaps ignored: pure cumulation);
// any other value must satisfy
// policy.Validate and reproduces the clean stage of
// dataset.PreparePipeline, including marking the drive Dropped (after which no rows
// are emitted).
func (st *RollingState) Advance(e *Extractor, policy dataset.GapPolicy, rec *dataset.Record, x []float64, meta []EmittedRow) ([]float64, []EmittedRow, error) {
	return st.advance(e, policy, rec.SerialNumber, rec.Vendor, rec.Day,
		rec.Smart[:], rec.Firmware, rec.WCounts, rec.BCounts, x, meta)
}

// AdvanceRow is Advance reading straight from columnar storage — the
// frame-native form behind Scorer.ReplayFrame. smart, w and b alias the
// caller's columns and are only read.
func (st *RollingState) AdvanceRow(e *Extractor, policy dataset.GapPolicy, sn, vendor string, day int,
	smart []float64, fw firmware.Version, w, b []float64, x []float64, meta []EmittedRow) ([]float64, []EmittedRow, error) {
	return st.advance(e, policy, sn, vendor, day, smart, fw, w, b, x, meta)
}

func (st *RollingState) advance(e *Extractor, policy dataset.GapPolicy, sn, vendor string, day int,
	smart []float64, fw firmware.Version, w, b []float64, x []float64, meta []EmittedRow) ([]float64, []EmittedRow, error) {
	if policy != (dataset.GapPolicy{}) {
		if err := policy.Validate(); err != nil {
			return x, meta, err
		}
	}
	if len(smart) != smartattr.Count {
		return x, meta, fmt.Errorf("features: drive %s: %d SMART values, want %d", sn, len(smart), smartattr.Count)
	}
	if st.observed > 0 && day <= st.lastDay {
		return x, meta, fmt.Errorf("features: drive %s: day %d does not follow day %d", sn, day, st.lastDay)
	}
	if st.dropped {
		// The offline pipeline has already excluded this drive; keep
		// tracking arrival order but emit nothing.
		st.lastDay = day
		st.observed++
		return x, meta, nil
	}

	if st.observed == 0 {
		st.cumW = append(st.cumW[:0], w...)
		st.cumB = append(st.cumB[:0], b...)
	} else {
		if len(w) != len(st.cumW) || len(b) != len(st.cumB) {
			return x, meta, fmt.Errorf("features: drive %s: count widths changed (%d/%d, want %d/%d)",
				sn, len(w), len(b), len(st.cumW), len(st.cumB))
		}
		gap := day - st.lastDay
		if policy.DropGap > 0 && gap >= policy.DropGap {
			st.dropped = true
			st.lastDay = day
			st.observed++
			return x, meta, nil
		}
		if gap >= 2 && gap <= policy.FillGap {
			// Synthesise the offline fill row once; it is identical
			// for every day of the gap.
			for i := range st.fillSmart {
				st.fillSmart[i] = (st.prevSmart[i] + smart[i]) / 2
			}
			st.fillW = growTo(st.fillW, len(w))
			st.fillB = growTo(st.fillB, len(b))
			for i := range w {
				st.fillW[i] = (st.prevW[i] + w[i]) / 2
			}
			for i := range b {
				st.fillB[i] = (st.prevB[i] + b[i]) / 2
			}
			for d := st.lastDay + 1; d < day; d++ {
				for i := range st.cumW {
					st.cumW[i] += st.fillW[i]
				}
				for i := range st.cumB {
					st.cumB[i] += st.fillB[i]
				}
				// Firmware cannot change while the machine is off: the
				// filled day carries the earlier record's version.
				x, meta = st.emit(e, vendor, d, st.fillSmart[:], st.prevFW, st.fillW, st.fillB, true, x, meta)
			}
		}
		for i, v := range w {
			st.cumW[i] += v
		}
		for i, v := range b {
			st.cumB[i] += v
		}
	}
	x, meta = st.emit(e, vendor, day, smart, fw, w, b, false, x, meta)

	copy(st.prevSmart[:], smart)
	st.prevFW = fw
	st.prevW = append(st.prevW[:0], w...)
	st.prevB = append(st.prevB[:0], b...)
	st.lastDay = day
	st.observed++
	return x, meta, nil
}

// growTo resizes s to n elements, reusing its backing array when it is
// large enough (contents are overwritten by the caller).
func growTo(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// emit appends one feature row (unless x is nil) plus its metadata, and
// pushes the day's aggregates into the diagnostic rings. dailyW/dailyB
// are the day's raw counts (the synthetic means for filled days).
func (st *RollingState) emit(e *Extractor, vendor string, day int, smart []float64, fw firmware.Version,
	dailyW, dailyB []float64, interp bool, x []float64, meta []EmittedRow) ([]float64, []EmittedRow) {
	if x != nil {
		x = e.appendCumRow(vendor, smart, fw, st.cumW, st.cumB, x)
	}
	meta = append(meta, EmittedRow{Day: int32(day), Interpolated: interp})
	st.rows++

	var wTot, bTot float64
	for _, v := range dailyW {
		wTot += v
	}
	for _, v := range dailyB {
		bTot += v
	}
	st.ringDay[st.ringPos] = int32(day)
	st.ringW[st.ringPos] = wTot
	st.ringB[st.ringPos] = bTot
	st.ringMedia[st.ringPos] = smart[smartattr.MediaErrors.Index()]
	st.ringPos = (st.ringPos + 1) % RollingWindow
	if st.ringLen < RollingWindow {
		st.ringLen++
	}
	return x, meta
}

// AppendLastRow appends the feature row of the drive's last emitted day
// to dst, rebuilt from the running cumulates and the previous raw
// observation (the last emitted row is always an observed day's). It
// reports false, leaving dst as it was, when the state has emitted no
// row or the firmware version has no code in e; it never registers a
// version, so it only reads the extractor.
func (st *RollingState) AppendLastRow(e *Extractor, vendor string, dst []float64) ([]float64, bool) {
	if st.rows == 0 {
		return dst, false
	}
	if e.group.Firmware {
		enc, ok := e.encoders[vendor]
		if !ok {
			return dst, false
		}
		if _, ok := enc.Lookup(st.prevFW); !ok {
			return dst, false
		}
	}
	return e.appendCumRow(vendor, st.prevSmart[:], st.prevFW, st.cumW, st.cumB, dst), true
}

// RollingSnapshot is the serialisable form of a RollingState, used by
// the scorer's persisted state (consumer machines reboot constantly).
// Ring entries are ordered oldest to newest.
type RollingSnapshot struct {
	LastDay      int       `json:"last_day"`
	Observed     int       `json:"observed"`
	Rows         int       `json:"rows"`
	Dropped      bool      `json:"dropped,omitempty"`
	CumW         []float64 `json:"cum_w"`
	CumB         []float64 `json:"cum_b"`
	PrevSmart    []float64 `json:"prev_smart,omitempty"`
	PrevFirmware string    `json:"prev_firmware,omitempty"`
	PrevW        []float64 `json:"prev_w,omitempty"`
	PrevB        []float64 `json:"prev_b,omitempty"`
	RingDays     []int32   `json:"ring_days,omitempty"`
	RingW        []float64 `json:"ring_w,omitempty"`
	RingB        []float64 `json:"ring_b,omitempty"`
	RingMedia    []float64 `json:"ring_media,omitempty"`
}

// Snapshot captures the state for persistence.
func (st *RollingState) Snapshot() RollingSnapshot {
	s := RollingSnapshot{
		LastDay:      st.lastDay,
		Observed:     st.observed,
		Rows:         st.rows,
		Dropped:      st.dropped,
		CumW:         append([]float64(nil), st.cumW...),
		CumB:         append([]float64(nil), st.cumB...),
		PrevFirmware: string(st.prevFW),
		PrevW:        append([]float64(nil), st.prevW...),
		PrevB:        append([]float64(nil), st.prevB...),
	}
	if st.observed > 0 {
		s.PrevSmart = append([]float64(nil), st.prevSmart[:]...)
	}
	for k := 0; k < st.ringLen; k++ {
		i := (st.ringPos - st.ringLen + k + RollingWindow) % RollingWindow
		s.RingDays = append(s.RingDays, st.ringDay[i])
		s.RingW = append(s.RingW, st.ringW[i])
		s.RingB = append(s.RingB, st.ringB[i])
		s.RingMedia = append(s.RingMedia, st.ringMedia[i])
	}
	return s
}

// RollingFromSnapshot reconstructs a RollingState.
func RollingFromSnapshot(s RollingSnapshot) (*RollingState, error) {
	if s.Observed < 0 || s.Rows < 0 || s.LastDay < -1 {
		return nil, fmt.Errorf("features: rolling snapshot is corrupt")
	}
	if s.Observed > 0 && s.LastDay < 0 {
		return nil, fmt.Errorf("features: rolling snapshot has observations but no last day")
	}
	if len(s.PrevSmart) != 0 && len(s.PrevSmart) != smartattr.Count {
		return nil, fmt.Errorf("features: rolling snapshot has %d SMART values, want %d", len(s.PrevSmart), smartattr.Count)
	}
	// A state with observations carries the previous record a mean-fill
	// starts from, as wide as the cumulates it adds to.
	if s.Observed > 0 && (len(s.PrevSmart) != smartattr.Count ||
		len(s.CumW) != winevent.Count() || len(s.CumB) != bsod.Count() ||
		len(s.PrevW) != len(s.CumW) || len(s.PrevB) != len(s.CumB)) {
		return nil, fmt.Errorf("features: rolling snapshot has observations but its previous record does not match its cumulates")
	}
	n := len(s.RingDays)
	if n > RollingWindow || len(s.RingW) != n || len(s.RingB) != n || len(s.RingMedia) != n {
		return nil, fmt.Errorf("features: rolling snapshot ring buffers are inconsistent")
	}
	st := &RollingState{
		lastDay:  s.LastDay,
		observed: s.Observed,
		rows:     s.Rows,
		dropped:  s.Dropped,
		cumW:     append([]float64(nil), s.CumW...),
		cumB:     append([]float64(nil), s.CumB...),
		prevFW:   firmware.Version(s.PrevFirmware),
		prevW:    append([]float64(nil), s.PrevW...),
		prevB:    append([]float64(nil), s.PrevB...),
	}
	copy(st.prevSmart[:], s.PrevSmart)
	for k := 0; k < n; k++ {
		st.ringDay[k] = s.RingDays[k]
		st.ringW[k] = s.RingW[k]
		st.ringB[k] = s.RingB[k]
		st.ringMedia[k] = s.RingMedia[k]
	}
	st.ringLen = n
	st.ringPos = n % RollingWindow
	return st, nil
}
