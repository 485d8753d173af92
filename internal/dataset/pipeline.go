package dataset

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/parallel"
)

// PipelineOptions configures the fused preprocessing pass.
type PipelineOptions struct {
	// Policy is the discontinuity policy applied unless SkipClean.
	Policy GapPolicy
	// SkipClean disables gap drop/fill (ablation: every drive is kept
	// verbatim and no rows are synthesised).
	SkipClean bool
	// SkipCumulate leaves the W/B counters as daily values.
	SkipCumulate bool
	// Workers bounds the per-drive fan-out (0 = GOMAXPROCS, 1 =
	// serial). The output is bit-identical at any setting.
	Workers int
}

// Plan is the first half of the paper's preprocessing over a frame:
// which drives survive the discontinuity optimisation, how many fill
// rows each gains, and the prepared day column. The second half is the
// per-drive step, Cursor, which streams a kept drive's prepared rows —
// mean-filled and cumulated — off the source frame. Plan.Frame writes
// those rows into an arena, the prepared frame; the feature builders
// extract from them directly, so training never holds a prepared copy
// of the telemetry.
//
// A plan reads its source frame and must not outlive changes to it.
type Plan struct {
	src      *Frame
	fillGap  int // widest gap mean-filled; 0 when the clean stage is off
	cumulate bool
	workers  int
	kept     []int32 // source drive index of each kept drive, ascending
	start    []int   // kept drive k's prepared rows are [start[k], start[k+1])
	day      []int32 // prepared day column; nil when the clean stage is off
	stats    CleanStats
}

// NewPlan runs pass A of the preprocessing on f: the drop/fill plan of
// every drive (drop drives with a gap of Policy.DropGap days or more,
// mean-fill gaps of 2..Policy.FillGap days) and the day column of the
// prepared rows. Gaps between FillGap and DropGap are left as-is: the
// drive survives but keeps its hole, the data-quality hazard the paper
// notes for sequence models such as CNN_LSTM. Per-drive work fans out
// over opts.Workers; the plan is identical at any worker count.
// Cleaning statistics are reported only when the clean stage runs.
func NewPlan(f *Frame, opts PipelineOptions) (*Plan, error) {
	if f.cumulated && !opts.SkipCumulate {
		return nil, fmt.Errorf("dataset: preparing a cumulated frame: counts are already running totals")
	}
	if opts.SkipClean {
		p := IdentityPlan(f)
		p.cumulate = !opts.SkipCumulate
		p.workers = opts.Workers
		return p, nil
	}
	if err := opts.Policy.Validate(); err != nil {
		return nil, err
	}
	extra, err := parallel.Map(f.Drives(), opts.Workers, func(i int) (int, error) {
		d := f.Drive(i)
		n := 0
		for r := int(d.Start) + 1; r < int(d.End); r++ {
			g := int(f.day[r] - f.day[r-1])
			if g >= opts.Policy.DropGap {
				return -1, nil
			}
			if g >= 2 && g <= opts.Policy.FillGap {
				n += g - 1
			}
		}
		return n, nil
	})
	if err != nil {
		return nil, err
	}

	// Serial prefix sums over the kept drives give every worker a
	// disjoint output range, so the merge order never depends on
	// scheduling.
	p := &Plan{
		src:      f,
		fillGap:  opts.Policy.FillGap,
		cumulate: !opts.SkipCumulate,
		workers:  opts.Workers,
		kept:     make([]int32, 0, f.Drives()),
		start:    make([]int, 1, f.Drives()+1),
		stats:    CleanStats{DrivesIn: f.Drives(), RecordsIn: f.Len()},
	}
	for i, n := range extra {
		if n < 0 {
			p.stats.DrivesDropped++
			continue
		}
		p.kept = append(p.kept, int32(i))
		p.start = append(p.start, p.Len()+f.Drive(i).Rows()+n)
		p.stats.RecordsFilled += n
	}
	p.day = make([]int32, p.Len())
	if err := parallel.Do(len(p.kept), opts.Workers, func(k int) error {
		src, out, i := f.Days(int(p.kept[k])), p.Days(k), 0
		for r, d := range src {
			if r > 0 {
				if g := int(d - src[r-1]); g >= 2 && g <= p.fillGap {
					for fd := src[r-1] + 1; fd < d; fd++ {
						out[i] = fd
						i++
					}
				}
			}
			out[i] = d
			i++
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return p, nil
}

// IdentityPlan is the plan that keeps f's rows as they are: every
// drive, no fill rows, counters as stored. Builders given a prepared
// frame read it through this plan.
func IdentityPlan(f *Frame) *Plan {
	p := &Plan{src: f, kept: make([]int32, f.Drives()), start: make([]int, f.Drives()+1)}
	for i := range p.kept {
		p.kept[i] = int32(i)
		p.start[i+1] = p.start[i] + f.Drive(i).Rows()
	}
	return p
}

// Source returns the frame the plan reads. Row firmware codes index its
// firmware table.
func (p *Plan) Source() *Frame { return p.src }

// Stats returns the clean stage's statistics (zero when it is off).
func (p *Plan) Stats() CleanStats { return p.stats }

// Drives returns the number of kept drives.
func (p *Plan) Drives() int { return len(p.kept) }

// Drive returns the source drive of kept drive k. The pointer aliases
// source frame state; callers must not modify it.
func (p *Plan) Drive(k int) *FrameDrive { return p.src.Drive(int(p.kept[k])) }

// DriveIndex returns the kept index of the drive with the given serial
// number, if it is present and kept.
func (p *Plan) DriveIndex(sn string) (int, bool) {
	i, ok := p.src.DriveIndex(sn)
	if !ok {
		return 0, false
	}
	return slices.BinarySearch(p.kept, int32(i))
}

// Len returns the total number of prepared rows.
func (p *Plan) Len() int { return p.start[len(p.start)-1] }

// Days returns the prepared days of kept drive k, strictly increasing.
// The slice aliases plan or source state; callers must not modify it.
func (p *Plan) Days(k int) []int32 {
	if p.day == nil {
		return p.src.Days(int(p.kept[k]))
	}
	return p.day[p.start[k]:p.start[k+1]]
}

// Row is one prepared row as the step yields it. Smart, W and B alias
// the source frame or the cursor's scratch and hold until the next call
// to Next; readers must not modify them.
type Row struct {
	Day          int32
	Interpolated bool
	// Firmware is the row's code in the source frame's firmware table.
	Firmware    int32
	Smart, W, B []float64
}

// Cursor is the per-drive step of the preprocessing: it walks one kept
// drive's source rows once and yields its prepared rows in day order,
// allocating nothing. A fill row, for each day inside a gap of
// 2..FillGap days, averages the two adjacent observations element-wise
// — (a+b)/2 — and carries the earlier firmware, since firmware cannot
// change while the machine is off. Running W/B totals add each daily
// vector in day order; the first observed row's counter bits are
// copied, not recomputed (accumulating into a zeroed vector would
// quietly turn -0 counters into +0). Plan.Stream hands cursors out.
type Cursor struct {
	Row
	p *Plan
	// smart, w and b are the cursor's scratch: a fill row's SMART
	// means and the running W/B totals (or, without the cumulate
	// stage, a fill row's W/B means).
	smart, w, b      []float64
	r, first, end    int   // next source row and the drive's source range
	fillDay, fillEnd int32 // fill days [fillDay, fillEnd) precede row r
	_                [cacheLine]byte
}

// cacheLine pads each cursor and its scratch: two workers' cursors,
// written on every row, must not share a cache line (at two workers,
// sharing made the streaming build slower than serial).
const cacheLine = 64

// cursorPool holds Stream's cursors, so the fan-out allocates nothing
// per drive after warm-up.
var cursorPool = sync.Pool{New: func() any {
	pad := cacheLine / 8
	v := make([]float64, pad+smartWidth+wWidth+bWidth+pad)[pad:]
	w, b := v[smartWidth:], v[smartWidth+wWidth:]
	return &Cursor{smart: v[:smartWidth:smartWidth], w: w[:wWidth:wWidth], b: b[:bWidth:bWidth]}
}}

// Stream fans fn out over the kept drives on at most workers
// goroutines (0 = GOMAXPROCS, 1 = serial), handing each a cursor at the
// start of its drive. fn owns the cursor until it returns; drives that
// need none may return without calling Next.
func (p *Plan) Stream(workers int, fn func(k int, c *Cursor) error) error {
	return parallel.Do(len(p.kept), workers, func(k int) error {
		c := cursorPool.Get().(*Cursor)
		d := p.Drive(k)
		*c = Cursor{p: p, smart: c.smart, w: c.w, b: c.b, r: int(d.Start), first: int(d.Start), end: int(d.End)}
		err := fn(k, c)
		// A pooled cursor must not keep the plan or its rows, and with
		// them the source frame, alive.
		*c = Cursor{smart: c.smart, w: c.w, b: c.b}
		cursorPool.Put(c)
		return err
	})
}

// Next advances to the drive's next prepared row, reporting false when
// the drive is exhausted.
func (c *Cursor) Next() bool {
	f := c.p.src
	if c.fillDay < c.fillEnd {
		c.fill(f)
		return true
	}
	if c.r == c.end {
		return false
	}
	c.observe(f)
	c.r++
	if c.r < c.end {
		if g := int(f.day[c.r] - f.day[c.r-1]); g >= 2 && g <= c.p.fillGap {
			c.fillDay, c.fillEnd = f.day[c.r-1]+1, f.day[c.r]
		}
	}
	return true
}

// observe yields source row c.r.
func (c *Cursor) observe(f *Frame) {
	r := c.r
	c.Day, c.Interpolated, c.Firmware = f.day[r], f.interp[r], f.fw[r]
	c.Smart = f.SmartRow(r)
	srcW, srcB := f.WRow(r), f.BRow(r)
	switch {
	case !c.p.cumulate:
		c.W, c.B = srcW, srcB
		return
	case r == c.first:
		copy(c.w, srcW)
		copy(c.b, srcB)
	default:
		cw, cb := c.w, c.b
		for j := range cw {
			cw[j] += srcW[j]
		}
		for j := range cb {
			cb[j] += srcB[j]
		}
	}
	c.W, c.B = c.w, c.b
}

// fill yields the fill row for c.fillDay, between source rows c.r-1
// and c.r.
func (c *Cursor) fill(f *Frame) {
	a, b := c.r-1, c.r
	aS, bS := f.SmartRow(a), f.SmartRow(b)
	for j := range c.smart {
		c.smart[j] = (aS[j] + bS[j]) / 2
	}
	aW, bW := f.WRow(a), f.WRow(b)
	aB, bB := f.BRow(a), f.BRow(b)
	cw, cb := c.w, c.b
	if c.p.cumulate {
		for j := range cw {
			cw[j] += (aW[j] + bW[j]) / 2
		}
		for j := range cb {
			cb[j] += (aB[j] + bB[j]) / 2
		}
	} else {
		for j := range cw {
			cw[j] = (aW[j] + bW[j]) / 2
		}
		for j := range cb {
			cb[j] = (aB[j] + bB[j]) / 2
		}
	}
	c.Day, c.Interpolated, c.Firmware = c.fillDay, true, f.fw[a]
	c.Smart, c.W, c.B = c.smart, cw, cb
	c.fillDay++
}

// Frame materialises the plan — the paper's preprocessing, the
// discontinuity optimisation followed by the cumulative W/B transform,
// fused into one traversal of each drive's row range: every kept
// drive's prepared rows written by the per-drive step into a pre-sized
// arena, in source drive order, sharing the source's firmware table.
// Per-drive work fans out over the plan's workers into disjoint
// ranges, so the frame is bit-identical at any worker count. The
// source is never modified; the plan of a frame with both stages
// skipped returns the source itself.
func (p *Plan) Frame() (*Frame, error) {
	if p.day == nil && !p.cumulate {
		return p.src, nil
	}
	out := NewFrameArena(p.Len())
	out.shareFirmwareTable(p.src)
	out.cumulated = p.cumulate || p.src.cumulated
	if err := p.Stream(p.workers, func(k int, c *Cursor) error {
		for row := p.start[k]; c.Next(); row++ {
			out.day[row], out.interp[row], out.fw[row] = c.Day, c.Interpolated, c.Firmware
			copy(out.SmartRow(row), c.Smart)
			copy(out.WRow(row), c.W)
			copy(out.BRow(row), c.B)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Ordered merge: register drives serially in dataset order. This is
	// also the once-per-build day-monotonicity validation point.
	for k := range p.kept {
		d := p.Drive(k)
		if err := out.AddDrive(d.SerialNumber, d.Vendor, d.Model, p.start[k], p.start[k+1]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
