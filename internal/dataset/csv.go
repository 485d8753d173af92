package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"

	"repro/internal/bsod"
	"repro/internal/firmware"
	"repro/internal/smartattr"
	"repro/internal/winevent"
)

// The CSV layout is: sn, vendor, model, day, interpolated, firmware,
// S_1..S_16, one column per catalogued Windows event, one per
// catalogued stop code. Header names use the paper's compact labels.

// Header returns the CSV column names in write order.
func Header() []string {
	h := []string{"sn", "vendor", "model", "day", "interpolated", "firmware"}
	for id := smartattr.ID(1); id <= smartattr.Count; id++ {
		h = append(h, id.Label())
	}
	for _, info := range winevent.All() {
		h = append(h, info.ID.Label())
	}
	for _, info := range bsod.All() {
		h = append(h, info.Code.Label())
	}
	return h
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteCSVFrame writes the frame to w, one row per record, drives in
// frame order. The tests keep a record-form writer, WriteCSV, that pins
// this byte layout.
func WriteCSVFrame(w io.Writer, f *Frame) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(Header()); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	row := make([]string, 0, 6+smartattr.Count+winevent.Count()+bsod.Count())
	for di := 0; di < f.Drives(); di++ {
		d := f.Drive(di)
		for r := int(d.Start); r < int(d.End); r++ {
			row = append(row[:0],
				d.SerialNumber,
				d.Vendor,
				d.Model,
				strconv.Itoa(int(f.Day(r))),
				strconv.FormatBool(f.Interpolated(r)),
				string(f.FirmwareAt(r)),
			)
			for _, v := range f.SmartRow(r) {
				row = append(row, formatFloat(v))
			}
			for _, v := range f.WRow(r) {
				row = append(row, formatFloat(v))
			}
			for _, v := range f.BRow(r) {
				row = append(row, formatFloat(v))
			}
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("dataset: write record: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSVFrame parses telemetry written by WriteCSVFrame straight into
// a columnar frame, one streamed row at a time — no []Record ever
// materialises. Files produced by the MFPA tools are grouped by drive
// in day order (the builder's fast path); anything else falls back to
// Dataset ingestion plus conversion.
func ReadCSVFrame(r io.Reader) (*Frame, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(Header())
	// The scratch record below is refilled from each row before the
	// next Read, so the reader's row slice can be reused throughout.
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	want := Header()
	for i := range want {
		if header[i] != want[i] {
			return nil, fmt.Errorf("dataset: header column %d is %q, want %q", i, header[i], want[i])
		}
	}
	b := NewFrameBuilder()
	scratch := Record{WCounts: winevent.NewCounts(), BCounts: bsod.NewCounts()}
	var fallback *Dataset // non-nil once row order breaks the builder
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: read line %d: %w", line, err)
		}
		if err := parseRowInto(&scratch, row); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		if fallback == nil {
			err := b.AppendRow(scratch.SerialNumber, scratch.Vendor, scratch.Model,
				scratch.Day, scratch.Firmware, &scratch.Smart,
				scratch.WCounts, scratch.BCounts, scratch.Interpolated)
			if err == nil {
				continue
			}
			if !errors.Is(err, ErrRowOrder) {
				return nil, fmt.Errorf("dataset: line %d: %w", line, err)
			}
			fallback = b.Finish().ToDataset()
		}
		if err := fallback.Append(scratch.Clone()); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
	}
	if fallback != nil {
		return FrameFromDataset(fallback)
	}
	return b.Finish(), nil
}

// parseRowInto fills rec from a CSV row, reusing its count slices.
func parseRowInto(rec *Record, row []string) error {
	rec.SerialNumber = row[0]
	rec.Vendor = row[1]
	rec.Model = row[2]
	rec.Firmware = firmware.Version(row[5])
	rec.Interpolated = false
	day, err := strconv.Atoi(row[3])
	if err != nil {
		return fmt.Errorf("bad day %q: %w", row[3], err)
	}
	rec.Day = day
	interp, err := strconv.ParseBool(row[4])
	if err != nil {
		return fmt.Errorf("bad interpolated flag %q: %w", row[4], err)
	}
	rec.Interpolated = interp

	col := 6
	for i := 0; i < smartattr.Count; i++ {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			return fmt.Errorf("bad SMART value %q: %w", row[col], err)
		}
		rec.Smart[i] = v
		col++
	}
	for i := 0; i < winevent.Count(); i++ {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			return fmt.Errorf("bad W count %q: %w", row[col], err)
		}
		rec.WCounts[i] = v
		col++
	}
	for i := 0; i < bsod.Count(); i++ {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			return fmt.Errorf("bad B count %q: %w", row[col], err)
		}
		rec.BCounts[i] = v
		col++
	}
	return nil
}
