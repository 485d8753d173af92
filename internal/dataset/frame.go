package dataset

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bsod"
	"repro/internal/firmware"
	"repro/internal/smartattr"
	"repro/internal/winevent"
)

// Column widths of the frame arena. SMART is a compile-time constant;
// the W/B catalogue sizes are fixed at init.
var (
	wWidth = winevent.Count()
	bWidth = bsod.Count()
)

const smartWidth = smartattr.Count

// FrameDrive is one drive's identity and row range within a Frame.
// Rows [Start, End) of the arena belong to the drive, in strictly
// increasing day order.
type FrameDrive struct {
	SerialNumber string
	Vendor       string
	Model        string
	Start, End   int32
}

// Rows returns the drive's record count.
func (d *FrameDrive) Rows() int { return int(d.End - d.Start) }

// Frame is the columnar (structure-of-arrays) drive-day telemetry
// arena: one flat column per field — day index, the 16 SMART
// attributes, the W and B counters, an interned firmware code, and the
// interpolated flag — plus the per-drive row ranges and identity
// strings. It holds exactly the information of a Dataset, laid out so
// the preprocessing pipeline streams each drive's rows without
// touching per-record heap objects.
//
// A frame built by NewFrameArena is mutable while it is being filled
// (the Set*/AddDrive/Intern* methods); once handed to readers it must
// be treated as immutable. Drive row ranges do not have to cover the
// whole arena (the fleet simulator leaves slack rows between drives,
// and the FilterVendor and Until views share their parent's arena), so
// all iteration goes through the drives' [Start, End) ranges, never
// over raw rows.
type Frame struct {
	drives []FrameDrive
	bySN   map[string]int32

	day    []int32
	interp []bool
	fw     []int32 // index into fwTab
	smart  []float64
	w      []float64
	b      []float64

	fwTab []firmware.Version
	fwIdx map[firmware.Version]int32

	length    int // total rows covered by drives
	cumulated bool
}

// NewFrameArena allocates a frame whose columns hold rows rows, with no
// drives registered yet. Builders fill columns (concurrently for
// disjoint row ranges) and then register each drive's range serially
// with AddDrive.
func NewFrameArena(rows int) *Frame {
	return &Frame{
		bySN:   make(map[string]int32),
		day:    make([]int32, rows),
		interp: make([]bool, rows),
		fw:     make([]int32, rows),
		smart:  make([]float64, rows*smartWidth),
		w:      make([]float64, rows*wWidth),
		b:      make([]float64, rows*bWidth),
		fwIdx:  make(map[firmware.Version]int32),
	}
}

// Drives returns the number of drives.
func (f *Frame) Drives() int { return len(f.drives) }

// Drive returns drive i in registration (dataset insertion) order. The
// pointer aliases frame state; callers must not modify it.
func (f *Frame) Drive(i int) *FrameDrive { return &f.drives[i] }

// DriveIndex returns the index of the drive with the given serial
// number, if present.
func (f *Frame) DriveIndex(sn string) (int, bool) {
	i, ok := f.bySN[sn]
	return int(i), ok
}

// Len returns the total number of records (rows covered by drives).
func (f *Frame) Len() int { return f.length }

// Days returns drive i's observation days, strictly increasing. The
// slice aliases the arena; callers must not modify it.
func (f *Frame) Days(i int) []int32 {
	d := &f.drives[i]
	return f.day[d.Start:d.End:d.End]
}

// Cumulated reports whether the W/B columns hold running totals (set
// by Plan.Frame; NewPlan refuses to cumulate a frame twice).
func (f *Frame) Cumulated() bool { return f.cumulated }

// Day returns the observation day of row.
func (f *Frame) Day(row int) int32 { return f.day[row] }

// SetDay records the observation day of row.
func (f *Frame) SetDay(row int, day int32) { f.day[row] = day }

// Interpolated reports whether row was synthesised by mean-fill.
func (f *Frame) Interpolated(row int) bool { return f.interp[row] }

// SmartRow returns the 16 SMART values of row. The slice aliases the
// arena; builders write through it, readers must not.
func (f *Frame) SmartRow(row int) []float64 {
	off := row * smartWidth
	return f.smart[off : off+smartWidth : off+smartWidth]
}

// WRow returns the W counter vector of row (daily counts, or running
// totals after the cumulative transform). Aliases the arena.
func (f *Frame) WRow(row int) []float64 {
	off := row * wWidth
	return f.w[off : off+wWidth : off+wWidth]
}

// BRow returns the B counter vector of row. Aliases the arena.
func (f *Frame) BRow(row int) []float64 {
	off := row * bWidth
	return f.b[off : off+bWidth : off+bWidth]
}

// FirmwareID returns the interned firmware code of row. Codes are
// frame-local; use FirmwareByID to recover the version string.
func (f *Frame) FirmwareID(row int) int32 { return f.fw[row] }

// FirmwareByID resolves an interned firmware code.
func (f *Frame) FirmwareByID(id int32) firmware.Version { return f.fwTab[id] }

// FirmwareAt returns the firmware version of row.
func (f *Frame) FirmwareAt(row int) firmware.Version { return f.fwTab[f.fw[row]] }

// InternFirmware returns the frame-local code of v, adding it to the
// table on first sight. Not safe for concurrent use: intern serially
// (or copy codes between frames sharing a table).
func (f *Frame) InternFirmware(v firmware.Version) int32 {
	if id, ok := f.fwIdx[v]; ok {
		return id
	}
	id := int32(len(f.fwTab))
	f.fwTab = append(f.fwTab, v)
	f.fwIdx[v] = id
	return id
}

// SetFirmware stamps row with version v, interning it. Serial-only.
func (f *Frame) SetFirmware(row int, v firmware.Version) {
	f.fw[row] = f.InternFirmware(v)
}

// FillFirmware stamps rows [start, end) with version v. Serial-only.
func (f *Frame) FillFirmware(start, end int, v firmware.Version) {
	id := f.InternFirmware(v)
	for row := start; row < end; row++ {
		f.fw[row] = id
	}
}

// shareFirmwareTable makes dst's firmware table (and intern index) a
// copy of src's, so workers filling dst can copy codes straight from
// src rows without interning.
func (dst *Frame) shareFirmwareTable(src *Frame) {
	dst.fwTab = append(dst.fwTab[:0], src.fwTab...)
	dst.fwIdx = make(map[firmware.Version]int32, len(src.fwIdx))
	for v, id := range src.fwIdx {
		dst.fwIdx[v] = id
	}
}

// AddDrive registers rows [start, end) as one drive's series. Must be
// called serially, in the intended drive order, after the rows are
// filled. The day column of the range is validated once here — strictly
// increasing days, non-negative — so every downstream pass (gap
// analysis, fill, labelling, windowed iteration) can assume
// monotonicity instead of re-checking it.
func (f *Frame) AddDrive(sn, vendor, model string, start, end int) error {
	if sn == "" {
		return errors.New("dataset: frame drive has empty serial number")
	}
	if start < 0 || end > len(f.day) || start >= end {
		return fmt.Errorf("dataset: frame drive %s has bad row range [%d, %d)", sn, start, end)
	}
	if _, dup := f.bySN[sn]; dup {
		return fmt.Errorf("dataset: frame drive %s registered twice", sn)
	}
	if f.day[start] < 0 {
		return fmt.Errorf("dataset: frame drive %s has negative day %d", sn, f.day[start])
	}
	for row := start + 1; row < end; row++ {
		if f.day[row] <= f.day[row-1] {
			return fmt.Errorf("dataset: frame drive %s days not strictly increasing at row %d (%d after %d)",
				sn, row, f.day[row], f.day[row-1])
		}
	}
	f.bySN[sn] = int32(len(f.drives))
	f.drives = append(f.drives, FrameDrive{
		SerialNumber: sn, Vendor: vendor, Model: model,
		Start: int32(start), End: int32(end),
	})
	f.length += end - start
	return nil
}

// FilterVendor returns a frame holding only the given vendor's drives.
// Columns are shared with f, not copied; the result is a read-only
// view. An empty vendor returns f itself.
func (f *Frame) FilterVendor(vendor string) *Frame {
	if vendor == "" {
		return f
	}
	out := f.view()
	for i := range f.drives {
		if d := &f.drives[i]; d.Vendor == vendor {
			out.addView(*d)
		}
	}
	return out
}

// Until returns a frame holding only the rows observed on or before
// day — the fleet's knowledge as of that date. Drives with no such row
// are omitted. Columns are shared with f, not copied; the result is a
// read-only view.
func (f *Frame) Until(day int) *Frame {
	out := f.view()
	for i := range f.drives {
		d := f.drives[i]
		lo := int(d.Start)
		d.End = int32(lo + sort.Search(d.Rows(), func(k int) bool { return int(f.day[lo+k]) > day }))
		if d.End > d.Start {
			out.addView(d)
		}
	}
	return out
}

// view returns a drive-less frame sharing f's columns, firmware table,
// and cumulated marker.
func (f *Frame) view() *Frame {
	return &Frame{
		bySN:      make(map[string]int32),
		day:       f.day,
		interp:    f.interp,
		fw:        f.fw,
		smart:     f.smart,
		w:         f.w,
		b:         f.b,
		fwTab:     f.fwTab,
		fwIdx:     f.fwIdx,
		cumulated: f.cumulated,
	}
}

// addView registers an already-validated drive range of a shared
// arena on a view built by view.
func (f *Frame) addView(d FrameDrive) {
	f.bySN[d.SerialNumber] = int32(len(f.drives))
	f.drives = append(f.drives, d)
	f.length += d.Rows()
}

// FrameFromDataset converts record-form telemetry into a compact
// columnar frame, preserving drive insertion order and the cumulated
// marker. Drives with no records are skipped (Dataset cannot normally
// hold them).
func FrameFromDataset(d *Dataset) (*Frame, error) {
	f := NewFrameArena(d.Len())
	row := 0
	for _, sn := range d.order {
		s := d.bySN[sn]
		if len(s.Records) == 0 {
			continue
		}
		start := row
		for i := range s.Records {
			r := &s.Records[i]
			f.day[row] = int32(r.Day)
			copy(f.SmartRow(row), r.Smart[:])
			copy(f.WRow(row), r.WCounts)
			copy(f.BRow(row), r.BCounts)
			f.interp[row] = r.Interpolated
			f.SetFirmware(row, r.Firmware)
			row++
		}
		if err := f.AddDrive(sn, s.Vendor, s.Model, start, row); err != nil {
			return nil, err
		}
	}
	f.cumulated = d.cumulated
	return f, nil
}

// ToDataset materialises the frame as record-form telemetry, for
// consumers that walk []Record slices. Count vectors are copied, so the
// dataset does not alias the arena.
func (f *Frame) ToDataset() *Dataset {
	d := New()
	for di := range f.drives {
		fd := &f.drives[di]
		s := &DriveSeries{SerialNumber: fd.SerialNumber, Vendor: fd.Vendor, Model: fd.Model}
		s.Records = make([]Record, 0, fd.Rows())
		wflat := make([]float64, fd.Rows()*wWidth)
		bflat := make([]float64, fd.Rows()*bWidth)
		for row := int(fd.Start); row < int(fd.End); row++ {
			k := row - int(fd.Start)
			wc := winevent.Counts(wflat[k*wWidth : (k+1)*wWidth : (k+1)*wWidth])
			bc := bsod.Counts(bflat[k*bWidth : (k+1)*bWidth : (k+1)*bWidth])
			copy(wc, f.WRow(row))
			copy(bc, f.BRow(row))
			rec := Record{
				SerialNumber: fd.SerialNumber,
				Vendor:       fd.Vendor,
				Model:        fd.Model,
				Day:          int(f.day[row]),
				Firmware:     f.fwTab[f.fw[row]],
				WCounts:      wc,
				BCounts:      bc,
				Interpolated: f.interp[row],
			}
			copy(rec.Smart[:], f.SmartRow(row))
			s.Records = append(s.Records, rec)
		}
		d.bySN[fd.SerialNumber] = s
		d.order = append(d.order, fd.SerialNumber)
	}
	d.cumulated = f.cumulated
	return d
}

// ErrRowOrder reports telemetry that is not grouped by drive in
// ascending day order — the streaming FrameBuilder's one requirement.
// Callers that cannot guarantee the order fall back to Dataset.Append
// plus FrameFromDataset.
var ErrRowOrder = errors.New("dataset: rows not grouped by drive in ascending day order")

// FrameBuilder assembles a frame from a stream of rows — the
// collection-agent and CSV ingest path. Rows must arrive grouped by
// drive with non-decreasing days (a repeated day replaces the previous
// row, matching Dataset.Append); anything else fails with ErrRowOrder.
type FrameBuilder struct {
	f   *Frame
	cur int // index of the open drive, -1 when none
}

// NewFrameBuilder returns an empty streaming builder.
func NewFrameBuilder() *FrameBuilder {
	return &FrameBuilder{f: NewFrameArena(0), cur: -1}
}

// AppendRow adds one observation without materialising a Record. The
// smart vector is required; nil w/b count vectors mean all-zero counts.
// Values are copied into the frame's columns.
func (b *FrameBuilder) AppendRow(sn, vendor, model string, day int, fw firmware.Version,
	smart *smartattr.Values, w winevent.Counts, bc bsod.Counts, interp bool) error {
	if sn == "" {
		return errors.New("dataset: record has empty serial number")
	}
	if day < 0 {
		return fmt.Errorf("dataset: record %s has negative day %d", sn, day)
	}
	if w != nil && len(w) != wWidth {
		return fmt.Errorf("dataset: record %s has %d W counters, want %d", sn, len(w), wWidth)
	}
	if bc != nil && len(bc) != bWidth {
		return fmt.Errorf("dataset: record %s has %d B counters, want %d", sn, len(bc), bWidth)
	}
	if err := validateValues(sn, smart[:], w, bc); err != nil {
		return err
	}
	f := b.f
	var row int
	if b.cur >= 0 && f.drives[b.cur].SerialNumber == sn {
		d := &f.drives[b.cur]
		if d.Vendor != vendor || d.Model != model {
			return fmt.Errorf("dataset: drive %s changes identity: have %s/%s, got %s/%s",
				sn, d.Vendor, d.Model, vendor, model)
		}
		last := int(f.day[d.End-1])
		switch {
		case day > last:
			row = int(d.End)
			b.grow()
			d.End++
		case day == last:
			row = int(d.End) - 1 // same-day re-observation supersedes
		default:
			return fmt.Errorf("%w: drive %s day %d after day %d", ErrRowOrder, sn, day, last)
		}
	} else {
		if _, seen := f.bySN[sn]; seen {
			return fmt.Errorf("%w: drive %s reappears after another drive", ErrRowOrder, sn)
		}
		row = len(f.day)
		b.grow()
		f.bySN[sn] = int32(len(f.drives))
		f.drives = append(f.drives, FrameDrive{
			SerialNumber: sn, Vendor: vendor, Model: model,
			Start: int32(row), End: int32(row) + 1,
		})
		b.cur = len(f.drives) - 1
	}
	f.day[row] = int32(day)
	f.interp[row] = interp
	f.SetFirmware(row, fw)
	copy(f.SmartRow(row), smart[:])
	wr, br := f.WRow(row), f.BRow(row)
	if w != nil {
		copy(wr, w)
	} else {
		clear(wr)
	}
	if bc != nil {
		copy(br, bc)
	} else {
		clear(br)
	}
	return nil
}

// grow extends every column by one row.
func (b *FrameBuilder) grow() {
	f := b.f
	f.day = append(f.day, 0)
	f.interp = append(f.interp, false)
	f.fw = append(f.fw, 0)
	f.smart = append(f.smart, make([]float64, smartWidth)...)
	f.w = append(f.w, make([]float64, wWidth)...)
	f.b = append(f.b, make([]float64, bWidth)...)
}

// Finish seals and returns the frame. The builder must not be used
// afterwards.
func (b *FrameBuilder) Finish() *Frame {
	f := b.f
	b.f = nil
	b.cur = -1
	f.length = len(f.day)
	return f
}
