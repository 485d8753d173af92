package ingest

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bsod"
	"repro/internal/smartattr"
	"repro/internal/winevent"
)

const sampleCSV = `Level,Date and Time,Source,Event ID,Task Category
Error,3/4/2021 10:23:11 AM,disk,51,None
Warning,3/4/2021 11:02:00 AM,disk,51,None
Error,3/5/2021 9:00:00 AM,Disk,11,None
Error,3/5/2021 9:30:00 AM,volmgr,49,None
Critical,3/5/2021 9:45:12 AM,BugCheck,1001,None,"The computer has rebooted from a bugcheck. The bugcheck was: 0x00000050 (0x0000000a, 0x00, 0x00, 0x00)."
Error,3/6/2021 8:00:00 AM,chkdsk,9999,None
Error,3/6/2021 8:30:00 AM,Cdrom,51,None
garbage line that is not really an event,x,y,z
`

func TestParseEventCSV(t *testing.T) {
	events, skipped, err := ParseEventCSV(strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	// 7 parsed (9999 and the Cdrom event parse fine; catalogue and
	// source filtering happen later), 1 skipped (garbage timestamp).
	if len(events) != 7 {
		t.Fatalf("events = %d, want 7", len(events))
	}
	if skipped != 1 {
		t.Fatalf("skipped = %d, want 1", skipped)
	}
	if events[0].ID != 51 || events[0].Source != "disk" {
		t.Fatalf("event 0 = %+v", events[0])
	}
	bug := events[4]
	if bug.ID != 1001 || bug.StopCode != bsod.PageFaultInNonpagedArea {
		t.Fatalf("bugcheck = %+v", bug)
	}
}

func TestParseStopCode(t *testing.T) {
	cases := map[string]bsod.Code{
		"The bugcheck was: 0x00000050 (0x...)": bsod.PageFaultInNonpagedArea,
		"The bugcheck was: 0x0000007a (...)":   bsod.KernelDataInpageError,
		"no code here":                         0,
		"0x":                                   0,
	}
	for msg, want := range cases {
		if got := parseStopCode(msg); got != want {
			t.Errorf("parseStopCode(%q) = %#x, want %#x", msg, int(got), int(want))
		}
	}
}

func mustCollector(t *testing.T) *Collector {
	t.Helper()
	epoch := time.Date(2021, 3, 4, 0, 0, 0, 0, time.UTC)
	c, err := NewCollector(epoch, "SN123", "I", "I-B256", "IFW1300")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCollectorEndToEnd(t *testing.T) {
	c := mustCollector(t)
	events, _, err := ParseEventCSV(strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for _, ev := range events {
		if c.AddEvent(ev) {
			accepted++
		}
	}
	// Accepted: 2× W_51 (day 0), W_11 + W_49 + bugcheck (day 1).
	// Rejected: event 9999 (uncatalogued) and the CD-ROM event 51
	// (non-storage provider).
	if accepted != 5 {
		t.Fatalf("accepted = %d, want 5", accepted)
	}

	// Day-1 snapshot from a synthetic health log.
	var v smartattr.Values
	v.Set(smartattr.AvailableSpare, 97)
	v.Set(smartattr.CompositeTemperature, 310)
	v.Set(smartattr.PowerOnHours, 1234)
	page := smartattr.MarshalHealthLog(&v)
	rec, err := c.Snapshot(time.Date(2021, 3, 5, 20, 0, 0, 0, time.UTC), page, 256)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Day != 1 {
		t.Fatalf("day = %d, want 1", rec.Day)
	}
	if rec.SerialNumber != "SN123" || rec.Vendor != "I" || rec.Firmware != "IFW1300" {
		t.Fatalf("identity lost: %+v", rec)
	}
	if got := rec.WCounts.Get(winevent.ControllerError); got != 1 {
		t.Errorf("W_11 = %g, want 1", got)
	}
	if got := rec.WCounts.Get(winevent.CrashDumpPageFile); got != 1 {
		t.Errorf("W_49 = %g, want 1", got)
	}
	if got := rec.BCounts.Get(bsod.PageFaultInNonpagedArea); got != 1 {
		t.Errorf("B_50 = %g, want 1", got)
	}
	if got := rec.Smart.Get(smartattr.PowerOnHours); got != 1234 {
		t.Errorf("PowerOnHours = %g", got)
	}
	if got := rec.Smart.Get(smartattr.Capacity); got != 256 {
		t.Errorf("capacity = %g", got)
	}
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}

	// Day 0's counts stayed separate.
	rec0, err := c.Snapshot(time.Date(2021, 3, 4, 23, 0, 0, 0, time.UTC), page, 256)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec0.WCounts.Get(winevent.PagingError); got != 2 {
		t.Errorf("day-0 W_51 = %g, want 2", got)
	}
}

func TestCollectorRejectsPreEpoch(t *testing.T) {
	c := mustCollector(t)
	old := Event{Time: time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC), ID: 51}
	if c.AddEvent(old) {
		t.Fatal("pre-epoch event accepted")
	}
	var v smartattr.Values
	page := smartattr.MarshalHealthLog(&v)
	if _, err := c.Snapshot(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC), page, 1); err == nil {
		t.Fatal("pre-epoch snapshot accepted")
	}
}

func TestNewCollectorValidates(t *testing.T) {
	if _, err := NewCollector(time.Now(), "", "I", "M", "FW"); err == nil {
		t.Fatal("empty serial accepted")
	}
}

func TestCollectorRejectsBadHealthLog(t *testing.T) {
	c := mustCollector(t)
	if _, err := c.Snapshot(c.Epoch.Add(24*time.Hour), []byte{1, 2, 3}, 1); err == nil {
		t.Fatal("short health log accepted")
	}
}
