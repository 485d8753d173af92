package simfleet

import (
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/firmware"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/smartattr"
	"repro/internal/ticket"
)

// FrameResult is Result with the telemetry in columnar frame form.
type FrameResult struct {
	// Frame is the raw (daily-count, discontinuous) telemetry arena.
	Frame *dataset.Frame
	// Tickets is the after-sales RaSRF ticket store.
	Tickets *ticket.Store
	// Truth maps serial number to ground truth.
	Truth map[string]DriveTruth
	// Stats summarises each vendor in spec order.
	Stats []VendorStats
	// Config echoes the configuration that produced the result.
	Config Config
}

// FaultyCount returns the number of faulty drives in the run.
func (res *FrameResult) FaultyCount() int {
	n := 0
	for _, t := range res.Truth {
		if t.Faulty {
			n++
		}
	}
	return n
}

// frameDriveOut is one drive's non-telemetry contribution on the frame
// path; its records land directly in the shared arena.
type frameDriveOut struct {
	rows   int
	truth  DriveTruth
	fwSeq  int
	ticket ticket.Ticket
}

// SimulateFrame is Simulate writing telemetry straight into one
// columnar arena: every drive's upper-bound row count is known from its
// spec alone (failDay+1 when faulty, the full window otherwise), so a
// serial prefix sum hands each worker a disjoint arena range and the
// per-day records are emitted in place — no per-record structs, no
// per-drive buffers, no merge copies. Unpowered days simply leave their
// slack rows untouched.
//
// The drive trajectories, truth, tickets, and stats are bit-identical
// to Simulate with the same configuration at any worker count;
// Frame.ToDataset() equals Simulate's Data field exactly.
func SimulateFrame(cfg Config) (*FrameResult, error) {
	if cfg.Vendors == nil {
		cfg.Vendors = DefaultVendors()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &FrameResult{
		Tickets: ticket.NewStore(),
		Truth:   make(map[string]DriveTruth),
		Config:  cfg,
	}
	master := rand.New(rng.NewSource(cfg.Seed))
	causes := ticket.AllCauses()
	causeWeights := make([]float64, len(causes))
	for i, c := range causes {
		causeWeights[i] = c.Share
	}

	var specs []driveSpec
	specs, res.Stats = buildSpecs(&cfg, master)

	// Size the arena from the specs: a drive observes at most one row
	// per window day, and a faulty one stops at its failure day.
	offs := make([]int, len(specs)+1)
	for i := range specs {
		bound := cfg.Days
		if specs[i].failDay >= 0 {
			bound = specs[i].failDay + 1
		}
		offs[i+1] = offs[i] + bound
	}
	f := dataset.NewFrameArena(offs[len(specs)])

	outs, err := parallel.Map(len(specs), cfg.Workers, func(i int) (frameDriveOut, error) {
		s := specs[i]
		return simulateDriveFrame(f, offs[i], s.sn, &cfg.Vendors[s.vendor], s.kind, s.failDay, &cfg, causes, causeWeights), nil
	})
	if err != nil {
		return nil, err
	}

	// Serial merge in spec order: register each drive's row range (the
	// firmware column is stamped here — interning is serial-only) and
	// collect truth, stats, and tickets exactly as Simulate does.
	for i := range outs {
		out := &outs[i]
		if out.rows > 0 {
			start := offs[i]
			f.FillFirmware(start, start+out.rows, firmware.Version(out.truth.Firmware))
			if err := f.AddDrive(out.truth.SerialNumber, out.truth.Vendor, out.truth.Model, start, start+out.rows); err != nil {
				return nil, err
			}
		}
		res.Truth[out.truth.SerialNumber] = out.truth
		if out.truth.Faulty {
			res.Stats[specs[i].stats].FailuresByFirmwareSeq[out.fwSeq]++
			res.Tickets.Add(out.ticket)
		}
	}
	res.Frame = f
	return res, nil
}

// simulateDriveFrame is simulateDrive emitting telemetry into arena
// rows [off, off+rows). It draws only from the drive's own
// serial-number-seeded RNG (pooled and re-seeded, which reproduces a
// fresh generator's stream exactly), so concurrent drives never
// interact.
func simulateDriveFrame(f *dataset.Frame, off int, sn string, v *VendorSpec, k kind, failDay int, cfg *Config, causes []ticket.Cause, causeWeights []float64) frameDriveOut {
	r := rngPool.Get().(*rand.Rand)
	defer rngPool.Put(r)
	r.Seed(driveRNGSeed(cfg.Seed, sn))
	d := newDriveState(r, sn, v, k, failDay, cfg)
	if d.kind == kindBurst {
		d.burstStart = r.Intn(cfg.Days)
	}
	d.placeEpisodes(r, cfg.Days)

	lastDay := cfg.Days - 1
	if d.failDay >= 0 {
		lastDay = d.failDay
	}
	abandoned := false
	if d.failDay >= 0 && cfg.AbandonShare > 0 && r.Float64() < cfg.AbandonShare {
		abandoned = true
		lastDay -= 1 + r.Intn(cfg.AbandonMaxDays)
		if lastDay < 0 {
			lastDay = 0
		}
	}
	var out frameDriveOut
	var failHours float64
	for day := 0; day <= lastDay; day++ {
		powered := r.Float64() < d.usage.onProb[day%7]
		if day == d.failDay && !abandoned {
			powered = true
		}
		if !powered {
			continue
		}
		row := off + out.rows
		f.SetDay(row, int32(day))
		smart := (*smartattr.Values)(f.SmartRow(row))
		d.stepDayInto(r, day, cfg, smart, f.WRow(row), f.BRow(row))
		out.rows++
		if d.failDay >= 0 {
			failHours = smart.Get(smartattr.PowerOnHours)
		}
	}

	out.truth = DriveTruth{
		SerialNumber:     sn,
		Vendor:           v.Name,
		Model:            d.model.Name,
		Firmware:         string(d.fw.Version),
		FirmwareSeq:      d.fw.Seq,
		Faulty:           k.Faulty(),
		Sudden:           k == kindSudden,
		FailDay:          d.failDay,
		FailPowerOnHours: failHours,
		Kind:             k.String(),
	}

	if k.Faulty() {
		out.fwSeq = d.fw.Seq
		delay := geometricDelay(r, cfg.TicketDelayMeanDays, cfg.TicketDelayMaxDays)
		cause := weightedIndex(r, causeWeights)
		out.ticket = ticket.Ticket{
			SerialNumber: sn,
			IMT:          d.failDay + delay,
			Cause:        cause,
			Description:  causes[cause].Name,
		}
	}
	return out
}
