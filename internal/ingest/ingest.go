// Package ingest is the collection-agent data path: it turns the raw
// artefacts available on a consumer Windows machine — Event Viewer CSV
// exports (including BugCheck 1001 records that carry blue-screen stop
// codes) and NVMe SMART/Health log pages — into the telemetry records
// the MFPA pipeline and the client agent consume.
package ingest

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/bsod"
	"repro/internal/dataset"
	"repro/internal/firmware"
	"repro/internal/smartattr"
	"repro/internal/winevent"
)

// Event is one parsed Windows event.
type Event struct {
	// Time is the event timestamp.
	Time time.Time
	// Source is the provider name (e.g. "disk", "BugCheck").
	Source string
	// ID is the Windows event identifier.
	ID int
	// StopCode is the blue-screen bug-check code carried by
	// BugCheck/1001 events; 0 otherwise.
	StopCode bsod.Code
}

// bugCheckEventID is the Windows event id of "the computer has
// rebooted from a bugcheck".
const bugCheckEventID = 1001

// timeLayouts are the timestamp formats Event Viewer CSV exports use.
var timeLayouts = []string{
	"1/2/2006 3:04:05 PM",
	"2006-01-02 15:04:05",
	time.RFC3339,
}

// ParseEventCSV reads an Event Viewer CSV export: the columns are
// Level, Date and Time, Source, Event ID, Task Category, and optionally
// Message. Unparseable rows are skipped and counted; a malformed CSV
// stream is an error.
func ParseEventCSV(r io.Reader) (events []Event, skipped int, err error) {
	cr := csv.NewReader(bufio.NewReader(r))
	cr.FieldsPerRecord = -1 // message column is optional
	first := true
	for line := 1; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("ingest: line %d: %w", line, err)
		}
		if first {
			first = false
			if strings.EqualFold(strings.TrimSpace(row[0]), "level") {
				continue // header row
			}
		}
		ev, ok := parseEventRow(row)
		if !ok {
			skipped++
			continue
		}
		events = append(events, ev)
	}
	return events, skipped, nil
}

func parseEventRow(row []string) (Event, bool) {
	if len(row) < 4 {
		return Event{}, false
	}
	var ts time.Time
	var err error
	for _, layout := range timeLayouts {
		ts, err = time.Parse(layout, strings.TrimSpace(row[1]))
		if err == nil {
			break
		}
	}
	if err != nil {
		return Event{}, false
	}
	id, err := strconv.Atoi(strings.TrimSpace(row[3]))
	if err != nil {
		return Event{}, false
	}
	ev := Event{Time: ts, Source: strings.TrimSpace(row[2]), ID: id}
	if ev.ID == bugCheckEventID && len(row) >= 6 {
		ev.StopCode = parseStopCode(row[5])
	}
	return ev, true
}

// parseStopCode extracts the bug-check code from a BugCheck 1001
// message: "The computer has rebooted from a bugcheck. The bugcheck
// was: 0x00000050 (0x..., ...)".
func parseStopCode(message string) bsod.Code {
	idx := strings.Index(message, "0x")
	if idx < 0 {
		return 0
	}
	hex := message[idx+2:]
	end := 0
	for end < len(hex) && isHexDigit(hex[end]) {
		end++
	}
	if end == 0 {
		return 0
	}
	v, err := strconv.ParseUint(hex[:end], 16, 32)
	if err != nil {
		return 0
	}
	return bsod.Code(v)
}

func isHexDigit(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// Collector accumulates a machine's daily event counts and assembles
// telemetry records when a SMART snapshot arrives.
type Collector struct {
	// Epoch anchors day indexes: day 0 is the calendar day of Epoch.
	Epoch time.Time
	// Drive identity stamped onto produced records.
	SerialNumber string
	Vendor       string
	Model        string
	Firmware     firmware.Version

	wByDay map[int]winevent.Counts
	bByDay map[int]bsod.Counts
}

// NewCollector builds a collector for one drive.
func NewCollector(epoch time.Time, sn, vendor, model string, fw firmware.Version) (*Collector, error) {
	if sn == "" {
		return nil, fmt.Errorf("ingest: empty serial number")
	}
	return &Collector{
		Epoch:        epoch,
		SerialNumber: sn,
		Vendor:       vendor,
		Model:        model,
		Firmware:     fw,
		wByDay:       make(map[int]winevent.Counts),
		bByDay:       make(map[int]bsod.Counts),
	}, nil
}

// dayIndex converts a timestamp to the collector's day axis.
func (c *Collector) dayIndex(ts time.Time) int {
	return int(ts.Sub(c.Epoch.Truncate(24*time.Hour)) / (24 * time.Hour))
}

// storageSources are the Windows providers whose events concern the
// storage stack; the same numeric event ID from another provider (e.g.
// event 51 from the CD-ROM class driver) must not be counted against
// the SSD.
var storageSources = map[string]bool{
	"disk":     true,
	"ntfs":     true,
	"volmgr":   true,
	"stornvme": true,
	"storahci": true,
	"partmgr":  true,
	"volsnap":  true,
	// The paper's W_161 comes from a database engine's file-system
	// error; accept the information-store provider it names.
	"msexchangeis": true,
}

// storageSource reports whether the provider belongs to the storage
// stack (case-insensitive).
func storageSource(source string) bool {
	return storageSources[strings.ToLower(strings.TrimSpace(source))]
}

// AddEvent records one Windows event. Events with uncatalogued IDs,
// events from non-storage providers, and pre-epoch events are ignored
// (reported false).
func (c *Collector) AddEvent(ev Event) bool {
	day := c.dayIndex(ev.Time)
	if day < 0 {
		return false
	}
	if ev.ID == bugCheckEventID {
		if !ev.StopCode.Valid() {
			return false
		}
		counts, ok := c.bByDay[day]
		if !ok {
			counts = bsod.NewCounts()
			c.bByDay[day] = counts
		}
		counts.Add(ev.StopCode, 1)
		return true
	}
	if !storageSource(ev.Source) {
		return false
	}
	id := winevent.ID(ev.ID)
	if !id.Valid() {
		return false
	}
	counts, ok := c.wByDay[day]
	if !ok {
		counts = winevent.NewCounts()
		c.wByDay[day] = counts
	}
	counts.Add(id, 1)
	return true
}

// Snapshot assembles the day's telemetry record from an NVMe health log
// page plus the day's accumulated event counts.
func (c *Collector) Snapshot(ts time.Time, healthLog []byte, capacityGB float64) (dataset.Record, error) {
	values, err := smartattr.ParseHealthLog(healthLog, capacityGB)
	if err != nil {
		return dataset.Record{}, err
	}
	day := c.dayIndex(ts)
	if day < 0 {
		return dataset.Record{}, fmt.Errorf("ingest: snapshot predates epoch")
	}
	rec := dataset.Record{
		SerialNumber: c.SerialNumber,
		Vendor:       c.Vendor,
		Model:        c.Model,
		Day:          day,
		Smart:        values,
		Firmware:     c.Firmware,
		WCounts:      winevent.NewCounts(),
		BCounts:      bsod.NewCounts(),
	}
	if w, ok := c.wByDay[day]; ok {
		copy(rec.WCounts, w)
	}
	if b, ok := c.bByDay[day]; ok {
		copy(rec.BCounts, b)
	}
	return rec, nil
}
