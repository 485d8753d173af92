package simfleet

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/smartattr"
	"repro/internal/ticket"
)

// DriveTruth is the ground truth for one simulated drive, used by
// experiments to score predictions and by the figure generators.
type DriveTruth struct {
	SerialNumber string
	Vendor       string
	Model        string
	Firmware     string
	FirmwareSeq  int
	// Faulty reports whether the drive fails during the window.
	Faulty bool
	// Sudden reports a failure with no precursor signal.
	Sudden bool
	// FailDay is the window-relative failure day, -1 when healthy.
	FailDay int
	// FailPowerOnHours is the SMART power-on-hour age at failure
	// (0 when healthy).
	FailPowerOnHours float64
	// Kind is the simulator cohort ("healthy", "smart-noise", "burst",
	// "faulty", "faulty-sudden").
	Kind string
}

// VendorStats summarises one vendor's nominal population for the
// Table VI / Fig. 3 experiments.
type VendorStats struct {
	Name string
	// Population is the nominal fleet size.
	Population int
	// Failures is the number of faulty drives materialised in this run
	// (after Config.FailureScale).
	Failures int
	// NominalFailures is the vendor spec's unscaled failure count.
	NominalFailures int
	// SampledHealthy is the number of healthy drives materialised.
	SampledHealthy int
	// FailuresByFirmwareSeq maps a firmware release sequence number to
	// the count of failures on it.
	FailuresByFirmwareSeq map[int]int
	// PopulationByFirmwareSeq maps a firmware release sequence to the
	// nominal population share running it.
	PopulationByFirmwareSeq map[int]float64
}

// ReplacementRate returns the run's scaled replacement rate: failures
// scaled back to the nominal population.
func (s *VendorStats) ReplacementRate() float64 {
	if s.Population == 0 {
		return 0
	}
	return float64(s.NominalFailures) / float64(s.Population)
}

// Result is one simulated fleet.
type Result struct {
	// Data is the raw (daily-count, discontinuous) telemetry.
	Data *dataset.Dataset
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
func (res *Result) FaultyCount() int {
	n := 0
	for _, t := range res.Truth {
		if t.Faulty {
			n++
		}
	}
	return n
}

// driveSpec is one drive's assignment, drawn serially from the master
// RNG so the spec sequence is identical at every worker count.
type driveSpec struct {
	sn      string
	vendor  int // index into cfg.Vendors
	stats   int // index into Result.Stats
	kind    kind
	failDay int
}

// driveOutput is everything one materialised drive contributes,
// produced by a worker and merged serially in spec order.
type driveOutput struct {
	records []dataset.Record
	truth   DriveTruth
	fwSeq   int
	ticket  ticket.Ticket
}

// Simulate generates a fleet per cfg. The same cfg (including Seed)
// always yields the same result: drive assignments come from a serial
// master-RNG pass, each drive's trajectory comes from its own
// serial-number-seeded RNG (order-independent by construction), and
// per-worker outputs are merged in spec order, so the output is
// bit-identical at any cfg.Workers setting.
func Simulate(cfg Config) (*Result, error) {
	if cfg.Vendors == nil {
		cfg.Vendors = DefaultVendors()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &Result{
		Data:    dataset.New(),
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

	// Pass 1 (serial): draw every drive's cohort assignment from the
	// master RNG in the fixed vendor/serial order.
	var specs []driveSpec
	specs, res.Stats = buildSpecs(&cfg, master)

	// Pass 2 (parallel): materialise each drive from its own RNG.
	outs, err := parallel.Map(len(specs), cfg.Workers, func(i int) (driveOutput, error) {
		s := specs[i]
		return simulateDrive(s.sn, &cfg.Vendors[s.vendor], s.kind, s.failDay, &cfg, causes, causeWeights), nil
	})
	if err != nil {
		return nil, err
	}

	// Pass 3 (serial): merge in spec order so dataset insertion order,
	// ticket order, and stats are identical to a serial run.
	for i := range outs {
		out := &outs[i]
		for _, rec := range out.records {
			if err := res.Data.Append(rec); err != nil {
				return nil, err
			}
		}
		res.Truth[out.truth.SerialNumber] = out.truth
		if out.truth.Faulty {
			res.Stats[specs[i].stats].FailuresByFirmwareSeq[out.fwSeq]++
			res.Tickets.Add(out.ticket)
		}
	}
	return res, nil
}

// serialNumber mints "<vendor>-<tag>NNNNNN" with the index zero-padded
// to six digits — the exact layout fmt.Sprintf("%s-%c%06d", ...) would
// produce — without fmt's argument boxing, which was the single
// largest allocation source in fleet construction.
func serialNumber(vendor string, tag byte, i int) string {
	if i < 0 || i >= 1000000 {
		return fmt.Sprintf("%s-%c%06d", vendor, tag, i)
	}
	var arr [16]byte
	buf := append(arr[:0], vendor...)
	buf = append(buf, '-', tag)
	for div := 100000; div >= 1; div /= 10 {
		buf = append(buf, byte('0'+(i/div)%10))
	}
	return string(buf)
}

// buildSpecs draws every drive's cohort assignment from the master RNG
// in the fixed vendor/serial order, along with the per-vendor stats
// skeletons. The draw sequence is shared by Simulate and SimulateFrame,
// so the two produce identical fleets for a configuration.
func buildSpecs(cfg *Config, master *rand.Rand) ([]driveSpec, []VendorStats) {
	var specs []driveSpec
	var allStats []VendorStats
	for vi := range cfg.Vendors {
		v := &cfg.Vendors[vi]
		nFaulty := int(math.Round(float64(v.Failures) * cfg.FailureScale))
		if nFaulty < 1 {
			nFaulty = 1
		}
		nHealthy := nFaulty * cfg.HealthyPerFaulty
		stats := VendorStats{
			Name:                    v.Name,
			Population:              v.Population,
			Failures:                nFaulty,
			NominalFailures:         v.Failures,
			SampledHealthy:          nHealthy,
			FailuresByFirmwareSeq:   make(map[int]int),
			PopulationByFirmwareSeq: make(map[int]float64),
		}
		for _, rel := range v.Firmware.Releases() {
			stats.PopulationByFirmwareSeq[rel.Seq] = rel.ShipShare * float64(v.Population)
		}
		si := len(allStats)
		allStats = append(allStats, stats)

		for i := 0; i < nFaulty; i++ {
			k := kindFaulty
			if master.Float64() < cfg.SuddenShare {
				k = kindSudden
			}
			// Failures spread uniformly over the window, but not in
			// the first week: a drive must have some history to be
			// observable at all.
			specs = append(specs, driveSpec{
				sn:      serialNumber(v.Name, 'F', i),
				vendor:  vi,
				stats:   si,
				kind:    k,
				failDay: 7 + master.Intn(cfg.Days-7),
			})
		}
		for i := 0; i < nHealthy; i++ {
			k := kindHealthy
			switch u := master.Float64(); {
			case u < cfg.SmartNoiseShare:
				k = kindSmartNoise
			case u < cfg.SmartNoiseShare+cfg.BurstShare:
				k = kindBurst
			}
			specs = append(specs, driveSpec{
				sn:      serialNumber(v.Name, 'H', i),
				vendor:  vi,
				stats:   si,
				kind:    k,
				failDay: -1,
			})
		}
	}
	return specs, allStats
}

// simulateDrive runs one drive through the window and returns its
// telemetry, ground truth, and (for faulty drives) its trouble ticket.
// It draws only from the drive's own serial-number-seeded RNG, so it is
// safe to call concurrently for different drives.
func simulateDrive(sn string, v *VendorSpec, k kind, failDay int, cfg *Config, causes []ticket.Cause, causeWeights []float64) driveOutput {
	r := driveRNG(cfg.Seed, sn)
	d := newDriveState(r, sn, v, k, failDay, cfg)
	if d.kind == kindBurst {
		d.burstStart = r.Intn(cfg.Days)
	}
	d.placeEpisodes(r, cfg.Days)

	lastDay := cfg.Days - 1
	if d.failDay >= 0 {
		lastDay = d.failDay
	}
	// Some users abandon a flaky machine before it dies outright, so
	// telemetry ends early and the gap to the eventual ticket widens.
	abandoned := false
	if d.failDay >= 0 && cfg.AbandonShare > 0 && r.Float64() < cfg.AbandonShare {
		abandoned = true
		lastDay -= 1 + r.Intn(cfg.AbandonMaxDays)
		if lastDay < 0 {
			lastDay = 0
		}
	}
	out := driveOutput{records: make([]dataset.Record, 0, lastDay+1)}
	var failHours float64
	for day := 0; day <= lastDay; day++ {
		powered := r.Float64() < d.usage.onProb[day%7]
		// The machine is certainly on the day it dies: the failure is
		// what the user notices. (Unless the user already gave up on it.)
		if day == d.failDay && !abandoned {
			powered = true
		}
		if !powered {
			continue
		}
		rec := d.stepDay(r, day, cfg)
		out.records = append(out.records, rec)
		if d.failDay >= 0 {
			// The age at the last observation approximates the age at
			// death (exact when the final record lands on the failure
			// day, which it does unless the user abandoned the machine).
			failHours = rec.Smart.Get(smartattr.PowerOnHours)
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
