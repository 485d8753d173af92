package features

// BuildOptions controls labelled-sample construction.
type BuildOptions struct {
	// PositiveWindowDays: records of a faulty drive within this many
	// days before (and including) the labelled failure day become
	// positive samples (the paper uses 7, 14, or 21).
	PositiveWindowDays int
	// NegativeFromFaulty, when set, also emits a faulty drive's records
	// *older* than ExclusionDays before failure as negatives. The paper
	// draws negatives from healthy drives only, so this defaults off.
	NegativeFromFaulty bool
	// ExclusionDays guards the label boundary: faulty-drive records in
	// (failDay−PositiveWindowDays−ExclusionDays, failDay−PositiveWindowDays]
	// are dropped entirely — they are too close to failure to be safe
	// negatives but too early to be confident positives.
	ExclusionDays int
	// Workers bounds the per-drive extraction goroutines; 0 selects
	// GOMAXPROCS, 1 reproduces serial extraction. Sample content and
	// order are identical at any setting.
	Workers int
}

// DefaultBuildOptions matches the paper: 7-day positive window,
// negatives from healthy drives only, 7 guard days.
func DefaultBuildOptions() BuildOptions {
	return BuildOptions{PositiveWindowDays: 7, ExclusionDays: 7}
}

// rowLabel applies the labelling rules of BuildOptions to one record
// of a drive: the returned label is valid only when keep is true —
// dropped records are post-failure stragglers, guard-band rows, and
// (by default) the early history of faulty drives.
func rowLabel(faulty bool, failDay, day int, opts *BuildOptions) (y int8, keep bool) {
	switch {
	case !faulty:
		return 0, true
	case day > failDay:
		return 0, false
	case day > failDay-opts.PositiveWindowDays:
		return 1, true
	case day > failDay-opts.PositiveWindowDays-opts.ExclusionDays:
		return 0, false // guard band
	default:
		return 0, opts.NegativeFromFaulty
	}
}
