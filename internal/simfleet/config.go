// Package simfleet simulates a production consumer-storage-system (CSS)
// fleet: a population of M.2 NVMe SSDs inside user machines that power
// on irregularly, emit SMART telemetry, Windows events, and blue-screen
// stop codes, and occasionally fail and get replaced through after-sales
// tickets.
//
// The simulator substitutes for the paper's proprietary 2.3-million-drive
// dataset. It is built top-down from the paper's own observations:
//
//   - failure ages follow a bathtub curve over power-on hours (Fig. 2);
//   - earlier firmware releases carry higher failure rates (Fig. 3);
//   - faulty drives ramp up WindowsEvent and BSOD activity in a window
//     before the eventual failure (Figs. 4–5), while healthy drives see
//     only background noise;
//   - telemetry is discontinuous because users do not power machines on
//     daily (Fig. 6);
//   - tickets record the initial maintenance time, which lags the real
//     failure by a user-dependent delay (the θ problem, Fig. 7).
//
// Every run is deterministic given Config.Seed.
package simfleet

import (
	"fmt"
)

// Config controls one fleet simulation.
type Config struct {
	// Seed drives all randomness. Equal configs produce equal fleets.
	Seed int64

	// Days is the length of the observation window in days.
	Days int

	// Vendors lists the drive populations to simulate. Defaults to the
	// paper's Table VI via DefaultVendors when nil.
	Vendors []VendorSpec

	// FailureScale multiplies every vendor's failure count, so
	// experiments can trade accuracy of rate estimates against runtime.
	// 1.0 reproduces the vendor spec counts.
	FailureScale float64

	// HealthyPerFaulty is how many healthy drives are materialised per
	// faulty drive. The nominal population (for replacement-rate math)
	// stays at the vendor spec's Population; only the telemetry of this
	// subsample is generated, mirroring the paper's negative
	// under-sampling.
	HealthyPerFaulty int

	// PrefailWindowDays is how many days before failure degradation
	// signals start ramping.
	PrefailWindowDays int

	// SuddenShare is the fraction of failures with no precursor signal
	// at all (controller dies outright). These bound the achievable
	// true positive rate below 100%.
	SuddenShare float64

	// SmartNoiseShare is the fraction of *healthy* drives that
	// accumulate benign SMART wear (media errors, spare depletion)
	// without failing. They are the main source of false positives for
	// SMART-only models; their W/B channels stay quiet, which is what
	// lets SFWB models reject them.
	SmartNoiseShare float64

	// BurstShare is the fraction of healthy drives that experience one
	// short transient error burst (loose cable, OS bug) during the
	// window.
	BurstShare float64

	// TicketDelayMeanDays is the mean of the geometric delay between a
	// drive's failure and the user bringing it in (IMT − failure).
	TicketDelayMeanDays float64

	// TicketDelayMaxDays truncates the ticket delay.
	TicketDelayMaxDays int

	// AbandonShare is the fraction of faulty drives whose user stops
	// using the flaky machine before it dies completely: telemetry ends
	// 1..AbandonMaxDays days before the failure, widening the gap
	// between the last tracking point and the ticket's IMT. This is the
	// data property that makes the θ labelling threshold genuinely
	// two-sided (the paper's sensitivity test); the headline fleets
	// leave it at 0.
	AbandonShare   float64
	AbandonMaxDays int

	// Workers bounds the goroutines that materialise drives; 0 selects
	// GOMAXPROCS and 1 reproduces serial generation. The per-drive RNG
	// (see driveRNG) makes every drive's trajectory independent of
	// generation order, so the output — telemetry, truth, tickets, and
	// stats — is bit-identical at any worker count.
	Workers int

	// DriftStartDay, if ≥ 0, is the day a fleet-wide OS update starts
	// raising background Windows-event rates on healthy machines
	// (covariate drift). DriftMonthlyFactor is the multiplicative rate
	// increase per 30 days after DriftStartDay. Set DriftStartDay to -1
	// to disable drift.
	DriftStartDay      int
	DriftMonthlyFactor float64
}

// DefaultConfig returns the configuration used by the repository's
// headline experiments: a 7-month window over a Table VI-proportioned
// fleet at reduced failure counts, with no OS drift (the paper's
// headline numbers come from a freshly-iterated model; drift is enabled
// explicitly by the Figs. 12/16 time-period experiment via DriftConfig).
func DefaultConfig() Config {
	return Config{
		Seed:                1,
		Days:                210,
		Vendors:             DefaultVendors(),
		FailureScale:        0.2,
		HealthyPerFaulty:    10,
		PrefailWindowDays:   30,
		SuddenShare:         0.01,
		SmartNoiseShare:     0.15,
		BurstShare:          0.06,
		TicketDelayMeanDays: 4,
		TicketDelayMaxDays:  15,
		DriftStartDay:       -1,
		DriftMonthlyFactor:  2.2,
	}
}

// DriftConfig returns the configuration of the five-month portability
// study (Figs. 12/16): a longer window whose learning period ends
// around day 105, with fleet-wide OS drift beginning two months later.
func DriftConfig() Config {
	cfg := DefaultConfig()
	cfg.Days = 270
	cfg.DriftStartDay = 165
	cfg.DriftMonthlyFactor = 2.2
	return cfg
}

// TinyConfig returns a fast configuration for unit tests: one short
// window, few drives, no drift.
func TinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Days = 90
	cfg.FailureScale = 0.02
	cfg.HealthyPerFaulty = 5
	cfg.DriftStartDay = -1
	return cfg
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Days < 30 {
		return fmt.Errorf("simfleet: Days %d must be ≥ 30", c.Days)
	}
	if c.FailureScale <= 0 {
		return fmt.Errorf("simfleet: FailureScale %g must be > 0", c.FailureScale)
	}
	if c.HealthyPerFaulty < 1 {
		return fmt.Errorf("simfleet: HealthyPerFaulty %d must be ≥ 1", c.HealthyPerFaulty)
	}
	if c.PrefailWindowDays < 1 {
		return fmt.Errorf("simfleet: PrefailWindowDays %d must be ≥ 1", c.PrefailWindowDays)
	}
	if c.SuddenShare < 0 || c.SuddenShare > 1 {
		return fmt.Errorf("simfleet: SuddenShare %g must be in [0,1]", c.SuddenShare)
	}
	if c.SmartNoiseShare < 0 || c.SmartNoiseShare > 1 {
		return fmt.Errorf("simfleet: SmartNoiseShare %g must be in [0,1]", c.SmartNoiseShare)
	}
	if c.BurstShare < 0 || c.BurstShare > 1 {
		return fmt.Errorf("simfleet: BurstShare %g must be in [0,1]", c.BurstShare)
	}
	if c.TicketDelayMeanDays < 0 {
		return fmt.Errorf("simfleet: TicketDelayMeanDays %g must be ≥ 0", c.TicketDelayMeanDays)
	}
	if c.TicketDelayMaxDays < 0 {
		return fmt.Errorf("simfleet: TicketDelayMaxDays %d must be ≥ 0", c.TicketDelayMaxDays)
	}
	if c.AbandonShare < 0 || c.AbandonShare > 1 {
		return fmt.Errorf("simfleet: AbandonShare %g must be in [0,1]", c.AbandonShare)
	}
	if c.AbandonShare > 0 && c.AbandonMaxDays < 1 {
		return fmt.Errorf("simfleet: AbandonMaxDays %d must be ≥ 1 when AbandonShare is set", c.AbandonMaxDays)
	}
	if c.DriftStartDay >= 0 && c.DriftMonthlyFactor < 1 {
		return fmt.Errorf("simfleet: DriftMonthlyFactor %g must be ≥ 1 when drift is enabled", c.DriftMonthlyFactor)
	}
	for i := range c.Vendors {
		if err := c.Vendors[i].Validate(); err != nil {
			return fmt.Errorf("simfleet: vendor %d: %w", i, err)
		}
	}
	return nil
}
