// Collector: the data-collection scenario — on a consumer machine, the
// only raw artefacts are the Windows Event Viewer log (including
// BugCheck records with blue-screen stop codes) and the drive's NVMe
// SMART/Health log page. This example parses both, assembles daily
// telemetry records, and scores them with a deployed model.
//
//	go run ./examples/collector
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/ingest"
	"repro/internal/serve"
	"repro/internal/smartattr"
)

// eventLog is what an Event Viewer CSV export of a degrading machine
// looks like over four days: paging errors and controller errors ramp
// up, then the machine blue-screens with storage stop codes.
const eventLog = `Level,Date and Time,Source,Event ID,Task Category
Error,3/1/2021 10:23:11 AM,disk,51,None
Error,3/2/2021 09:10:00 AM,disk,51,None
Error,3/2/2021 11:45:31 AM,disk,11,None
Error,3/3/2021 08:05:00 AM,disk,51,None
Error,3/3/2021 08:55:12 AM,disk,11,None
Error,3/3/2021 10:14:02 AM,disk,51,None
Error,3/3/2021 11:37:55 AM,disk,11,None
Error,3/3/2021 02:20:45 PM,Ntfs,161,None
Error,3/3/2021 03:18:09 PM,disk,51,None
Critical,3/3/2021 04:01:00 PM,BugCheck,1001,None,"The computer has rebooted from a bugcheck. The bugcheck was: 0x00000050 (0xfffff803, 0x0, 0x0, 0x0)."
Error,3/4/2021 09:12:00 AM,disk,51,None
Error,3/4/2021 09:31:40 AM,disk,11,None
Error,3/4/2021 09:55:21 AM,disk,51,None
Error,3/4/2021 10:02:13 AM,Ntfs,161,None
Error,3/4/2021 10:44:08 AM,disk,11,None
Error,3/4/2021 11:21:30 AM,disk,51,None
Error,3/4/2021 12:02:11 PM,disk,51,None
Error,3/4/2021 12:40:03 PM,disk,11,None
Error,3/4/2021 01:15:27 PM,Ntfs,161,None
Error,3/4/2021 01:58:44 PM,disk,51,None
Error,3/4/2021 02:26:18 PM,disk,51,None
Error,3/4/2021 02:59:51 PM,Ntfs,161,None
Critical,3/4/2021 11:55:00 AM,BugCheck,1001,None,"The computer has rebooted from a bugcheck. The bugcheck was: 0x0000007a (0xfffff803, 0x0, 0x0, 0x0)."
Critical,3/4/2021 03:35:00 PM,BugCheck,1001,None,"The computer has rebooted from a bugcheck. The bugcheck was: 0x00000050 (0xfffff803, 0x0, 0x0, 0x0)."
Error,3/5/2021 08:30:00 AM,disk,51,None
Error,3/5/2021 08:52:10 AM,disk,11,None
Error,3/5/2021 09:15:42 AM,disk,51,None
Error,3/5/2021 09:48:33 AM,Ntfs,161,None
Error,3/5/2021 10:12:57 AM,disk,51,None
Error,3/5/2021 10:40:21 AM,disk,11,None
Critical,3/5/2021 11:02:00 AM,BugCheck,1001,None,"The computer has rebooted from a bugcheck. The bugcheck was: 0x0000007a (0xfffff803, 0x0, 0x0, 0x0)."
Critical,3/5/2021 02:47:00 PM,BugCheck,1001,None,"The computer has rebooted from a bugcheck. The bugcheck was: 0x00000024 (0xfffff803, 0x0, 0x0, 0x0)."
`

func main() {
	log.SetFlags(0)

	// Train a model fleet-side (in production this arrives via modelio).
	fleetCfg := mfpa.DefaultFleetConfig()
	fleetCfg.FailureScale = 0.05
	fleet, err := mfpa.SimulateFleet(fleetCfg)
	if err != nil {
		log.Fatal(err)
	}
	model, _, err := mfpa.Train(fleet.Data, fleet.Tickets, mfpa.DefaultConfig("I"))
	if err != nil {
		log.Fatal(err)
	}
	sc, err := serve.New(model, serve.Options{AlarmAfter: 2})
	if err != nil {
		log.Fatal(err)
	}

	// Parse the event log.
	events, skipped, err := ingest.ParseEventCSV(strings.NewReader(eventLog))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parsed %d events (%d rows skipped)\n", len(events), skipped)

	epoch := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	col, err := ingest.NewCollector(epoch, "SN-LOCAL-1", "I", "I-B256", "IFW1200")
	if err != nil {
		log.Fatal(err)
	}
	for _, ev := range events {
		col.AddEvent(ev)
	}

	// Each evening the collector snapshots the NVMe health log and
	// hands the assembled record to the scorer. The SMART state below
	// degrades in step with the event log.
	type daySmart struct {
		spare, media, errlog, hours float64
		warn                        float64
	}
	days := []daySmart{
		{spare: 96, media: 3, errlog: 9, hours: 9100},
		{spare: 95, media: 12, errlog: 29, hours: 9107},
		{spare: 90, media: 41, errlog: 93, hours: 9115},
		{spare: 76, media: 124, errlog: 266, hours: 9121, warn: 1},
		{spare: 68, media: 197, errlog: 430, hours: 9126, warn: 1},
	}
	fmt.Println("\nday  P(faulty)  status")
	for i, d := range days {
		var v smartattr.Values
		v.Set(smartattr.CriticalWarning, d.warn)
		v.Set(smartattr.CompositeTemperature, 312)
		v.Set(smartattr.AvailableSpare, d.spare)
		v.Set(smartattr.AvailableSpareThreshold, 10)
		v.Set(smartattr.PercentageUsed, 21)
		v.Set(smartattr.DataUnitsRead, 5.2e9)
		v.Set(smartattr.DataUnitsWritten, 3.1e9)
		v.Set(smartattr.HostReadCommands, 1.6e11)
		v.Set(smartattr.HostWriteCommands, 9.4e10)
		v.Set(smartattr.ControllerBusyTime, 31000+float64(i)*90)
		v.Set(smartattr.PowerCycles, 1480+float64(i))
		v.Set(smartattr.PowerOnHours, d.hours)
		v.Set(smartattr.UnsafeShutdowns, 11+float64(i))
		v.Set(smartattr.MediaErrors, d.media)
		v.Set(smartattr.ErrorLogEntries, d.errlog)
		page := smartattr.MarshalHealthLog(&v)

		ts := epoch.Add(time.Duration(i)*24*time.Hour + 20*time.Hour)
		rec, err := col.Snapshot(ts, page, 256)
		if err != nil {
			log.Fatal(err)
		}
		out, _, err := sc.ObserveDay([]dataset.Record{rec})
		if err != nil {
			log.Fatal(err)
		}
		as := out[len(out)-1]
		status := "ok"
		if as.Quarantined {
			log.Fatalf("day %d: collector record rejected: %+v", as.Day, sc.QuarantineReasons())
		}
		if as.Flagged {
			status = "flagged"
		}
		if as.Alarmed {
			status = "ALARM — back up now"
		}
		fmt.Printf("%3d  %9.3f  %s\n", as.Day, as.Probability, status)
	}
}
