package ingest

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/smartattr"
)

// TestSnapshotIntoMatchesSnapshot pins the streaming collector path:
// SnapshotInto must land in the frame exactly what Snapshot plus
// FrameBuilder.Append would — across days with and without events.
func TestSnapshotIntoMatchesSnapshot(t *testing.T) {
	want := mustCollector(t)
	got := mustCollector(t)
	events, _, err := ParseEventCSV(strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		want.AddEvent(ev)
		got.AddEvent(ev)
	}
	wantB := dataset.NewFrameBuilder()
	gotB := dataset.NewFrameBuilder()
	for day := 0; day < 4; day++ {
		var v smartattr.Values
		v.Set(smartattr.AvailableSpare, 97)
		v.Set(smartattr.PowerOnHours, float64(1000+day*13))
		page := smartattr.MarshalHealthLog(&v)
		ts := want.Epoch.Add(time.Duration(day)*24*time.Hour + 20*time.Hour)
		rec, err := want.Snapshot(ts, page, 256)
		if err != nil {
			t.Fatal(err)
		}
		if err := wantB.AppendRow(rec.SerialNumber, rec.Vendor, rec.Model, rec.Day, rec.Firmware,
			&rec.Smart, rec.WCounts, rec.BCounts, rec.Interpolated); err != nil {
			t.Fatal(err)
		}
		if err := got.SnapshotInto(gotB, ts, page, 256); err != nil {
			t.Fatal(err)
		}
	}
	wantD := wantB.Finish().ToDataset()
	gotD := gotB.Finish().ToDataset()
	if !reflect.DeepEqual(wantD.SerialNumbers(), gotD.SerialNumbers()) {
		t.Fatal("drive sets differ")
	}
	for _, sn := range wantD.SerialNumbers() {
		ws, _ := wantD.Series(sn)
		gs, _ := gotD.Series(sn)
		if !reflect.DeepEqual(ws, gs) {
			t.Fatalf("drive %s telemetry differs", sn)
		}
	}
}

func TestSnapshotIntoRejectsPreEpoch(t *testing.T) {
	c := mustCollector(t)
	b := dataset.NewFrameBuilder()
	var v smartattr.Values
	page := smartattr.MarshalHealthLog(&v)
	if err := c.SnapshotInto(b, c.Epoch.Add(-48*time.Hour), page, 1); err == nil {
		t.Fatal("pre-epoch snapshot accepted")
	}
}

func TestSnapshotIntoRejectsBadHealthLog(t *testing.T) {
	c := mustCollector(t)
	b := dataset.NewFrameBuilder()
	if err := c.SnapshotInto(b, c.Epoch.Add(24*time.Hour), []byte{1, 2, 3}, 1); err == nil {
		t.Fatal("short health log accepted")
	}
}

// SnapshotInto is Snapshot appending straight to a streaming frame
// builder: the day's observation lands in the columnar arena without a
// Record or fresh count vectors. The builder row is identical to what
// Snapshot plus FrameBuilder.AppendRow would produce.
func (c *Collector) SnapshotInto(b *dataset.FrameBuilder, ts time.Time, healthLog []byte, capacityGB float64) error {
	values, err := smartattr.ParseHealthLog(healthLog, capacityGB)
	if err != nil {
		return err
	}
	day := c.dayIndex(ts)
	if day < 0 {
		return fmt.Errorf("ingest: snapshot predates epoch")
	}
	// Absent maps hand the builder nil counts, which it zero-fills.
	return b.AppendRow(c.SerialNumber, c.Vendor, c.Model, day, c.Firmware,
		&values, c.wByDay[day], c.bByDay[day], false)
}
