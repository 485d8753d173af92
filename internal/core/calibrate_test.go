package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/forest"
	"repro/internal/sampling"
)

// discreteCal draws features from small integer alphabets (the binning
// exactness regime) across a long day range so time-series CV folds
// are well-populated.
func discreteCal(n int, seed int64) []ml.Sample {
	r := rand.New(rand.NewSource(seed))
	out := make([]ml.Sample, n)
	for i := range out {
		a := float64(r.Intn(14))
		b := float64(r.Intn(6))
		y := 0
		if a+b > 10 {
			y = 1
		}
		if r.Float64() < 0.1 {
			y = 1 - y
		}
		out[i] = ml.Sample{
			X:   []float64{a, b, float64(r.Intn(4))},
			Y:   y,
			Day: i / 4,
			SN:  fmt.Sprintf("d%d", i%31),
		}
	}
	return out
}

// calibrateThresholdView fits a calibration's folds one after another
// and picks its threshold, failing on the first failed fold.
func calibrateThresholdView(trainer ml.Trainer, trainFull ml.View, cfg Config) (float64, error) {
	cal, err := newCalibration(trainFull, cfg)
	if err != nil {
		return 0, err
	}
	for i := range cal.folds {
		if err := cal.fit(trainer, i, cfg.Workers); err != nil {
			return 0, err
		}
	}
	return cal.threshold(), nil
}

// TestCalibrateThresholdViewMatchesSlice pins satellite behaviour of
// the view rewrite: the preallocated, view-based calibration must pick
// exactly the threshold the append-growing slice implementation did.
func TestCalibrateThresholdViewMatchesSlice(t *testing.T) {
	for _, seed := range []int64{2, 19} {
		samples := discreteCal(600, seed)
		set, err := ml.FromSamples(samples)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{CVFolds: 3, NegativeRatio: 3, Seed: seed, Workers: 2}
		trainer := &forest.Trainer{Trees: 15, MaxDepth: 6, Seed: seed}

		want, err := calibrateThreshold(trainer, samples, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := calibrateThresholdView(trainer, set.All(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("seed=%d: view threshold %v, slice threshold %v", seed, got, want)
		}
	}
}

// TestCalibrateThresholdViewNoUsableFolds mirrors the slice error
// contract when every fold is single-class.
func TestCalibrateThresholdViewNoUsableFolds(t *testing.T) {
	neg := make([]ml.Sample, 40)
	for i := range neg {
		neg[i] = ml.Sample{X: []float64{float64(i % 5)}, Y: 0, Day: i}
	}
	set, err := ml.FromSamples(neg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{CVFolds: 2, NegativeRatio: 3, Seed: 1, Workers: 1}
	if _, err := calibrateThresholdView(&forest.Trainer{Trees: 3}, set.All(), cfg); err == nil {
		t.Fatal("all-negative calibration accepted")
	}
}

// failOnMaxDay is a forest trainer that fails on the view whose last
// day is day: each calibration fold and the final fit end on a
// different day.
type failOnMaxDay struct {
	forest.Trainer
	day int
	err error
}

func (t *failOnMaxDay) Train(v ml.View) (ml.Classifier, error) {
	if v.MaxDay() == t.day {
		return nil, t.err
	}
	return t.Trainer.Train(v)
}

// TestFitCalibratedErrorIdentity pins fitCalibrated's error contract
// at one and at four workers: a failed calibration fold keeps the 0.5
// threshold and still returns the final model; a failed final fit
// returns its own error.
func TestFitCalibratedErrorIdentity(t *testing.T) {
	set, err := ml.FromSamples(discreteCal(600, 2))
	if err != nil {
		t.Fatal(err)
	}
	trainFull := set.All()
	base := Config{CVFolds: 3, NegativeRatio: 3, Seed: 2}
	train, err := sampling.UnderSampleView(trainFull, base.NegativeRatio, base.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := newCalibration(trainFull, base)
	if err != nil {
		t.Fatal(err)
	}
	days := map[int]bool{train.MaxDay(): true}
	for _, f := range cal.folds {
		days[f.train.MaxDay()] = true
	}
	if len(cal.folds) < 2 || len(days) != len(cal.folds)+1 {
		t.Fatalf("need distinct last days to target one fit: %v", days)
	}
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		cfg := base
		cfg.Workers = workers
		fold := &failOnMaxDay{Trainer: forest.Trainer{Trees: 5, MaxDepth: 4, Seed: 2}, day: cal.folds[1].train.MaxDay(), err: boom}
		clf, thr, err := fitCalibrated(fold, train, trainFull, cfg)
		if err != nil || clf == nil || thr != 0.5 {
			t.Fatalf("workers=%d, failed fold: clf %v threshold %v err %v; want a model at 0.5", workers, clf, thr, err)
		}
		final := &failOnMaxDay{Trainer: fold.Trainer, day: train.MaxDay(), err: boom}
		if _, _, err := fitCalibrated(final, train, trainFull, cfg); !errors.Is(err, boom) {
			t.Fatalf("workers=%d, failed final fit: err %v, want %v", workers, err, boom)
		}
	}
}
