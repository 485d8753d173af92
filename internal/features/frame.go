package features

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/labeling"
	"repro/internal/ml"
	"repro/internal/parallel"
)

// BuildSampleSetFrame constructs the flat labelled samples of a
// cleaned, cumulated frame straight into one columnar ml.SampleSet —
// the arena the zero-copy view pipeline (splits, under-sampling, CV
// folds, grid search, feature selection) operates on. Construction is
// two-pass: a labelling pass over the day column counts each drive's
// surviving rows, then every drive copies or gathers its column rows
// in parallel into its pre-computed arena segment, looking firmware
// codes up only when a drive's interned code changes. Rows follow
// drive then day order, identical at any worker count.
func BuildSampleSetFrame(f *dataset.Frame, labels labeling.Labels, e *Extractor, opts BuildOptions) (*ml.SampleSet, error) {
	if opts.PositiveWindowDays < 1 {
		return nil, fmt.Errorf("features: PositiveWindowDays %d must be ≥ 1", opts.PositiveWindowDays)
	}
	e.primeFrame(f)
	width := e.Width()
	counts, err := parallel.Map(f.Drives(), opts.Workers, func(i int) (int, error) {
		d := f.Drive(i)
		label, faulty := labels[d.SerialNumber]
		n := 0
		for r := int(d.Start); r < int(d.End); r++ {
			if _, keep := rowLabel(faulty, label.FailDay, int(f.Day(r)), &opts); keep {
				n++
			}
		}
		return n, nil
	})
	if err != nil {
		return nil, err
	}
	offs := make([]int, f.Drives()+1)
	for i, c := range counts {
		offs[i+1] = offs[i] + c
	}
	total := offs[f.Drives()]
	if total == 0 {
		return nil, fmt.Errorf("features: no samples produced")
	}
	x := make([]float64, total*width)
	y := make([]int8, total)
	day := make([]int32, total)
	sn := make([]string, total)
	g := e.group
	if err := parallel.Do(f.Drives(), opts.Workers, func(i int) error {
		d := f.Drive(i)
		label, faulty := labels[d.SerialNumber]
		var enc func(id int32) float64
		if g.Firmware {
			venc := e.encoder(d.Vendor)
			lastID, lastCode := int32(-1), 0.0
			enc = func(id int32) float64 {
				if id != lastID {
					lastCode = venc.Encode(f.FirmwareByID(id))
					lastID = id
				}
				return lastCode
			}
		}
		j := offs[i]
		for r := int(d.Start); r < int(d.End); r++ {
			rd := int(f.Day(r))
			yk, keep := rowLabel(faulty, label.FailDay, rd, &opts)
			if !keep {
				continue
			}
			row := x[j*width : (j+1)*width]
			k := 0
			if g.SMART {
				k += copy(row[k:], f.SmartRow(r))
			}
			if g.Firmware {
				row[k] = enc(f.FirmwareID(r))
				k++
			}
			if g.WEvents {
				w := f.WRow(r)
				for _, idx := range e.wIdx {
					row[k] = w[idx]
					k++
				}
			}
			if g.BSOD {
				b := f.BRow(r)
				k += copy(row[k:], b)
				// Same index-order summation as Counts.Total.
				tot := 0.0
				for _, v := range b {
					tot += v
				}
				row[k] = tot
			}
			y[j] = yk
			day[j] = int32(rd)
			sn[j] = d.SerialNumber
			j++
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return ml.NewSampleSet(width, x, y, day, sn)
}
