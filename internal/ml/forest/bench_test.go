package forest

import (
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/mltest"
)

func benchData(n int) []ml.Sample { return rings(n, 1) }

func BenchmarkForestTrain(b *testing.B) {
	train := mltest.View(benchData(2000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&Trainer{Trees: 50, MaxDepth: 10, Seed: 1}).Train(train); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestTrainSerial pins training to one goroutine, isolating
// the per-tree cost of the histogram engine from the parallel speedup.
func BenchmarkForestTrainSerial(b *testing.B) {
	train := mltest.View(benchData(2000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&Trainer{Trees: 50, MaxDepth: 10, Seed: 1, Parallelism: 1}).Train(train); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForestPredict(b *testing.B) {
	train := benchData(2000)
	clf, err := (&Trainer{Trees: 100, MaxDepth: 12, Seed: 1}).Train(mltest.View(train))
	if err != nil {
		b.Fatal(err)
	}
	x := train[0].X
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clf.PredictProba(x)
	}
}

func BenchmarkForestExplain(b *testing.B) {
	train := benchData(2000)
	clf, err := (&Trainer{Trees: 100, MaxDepth: 12, Seed: 1}).Train(mltest.View(train))
	if err != nil {
		b.Fatal(err)
	}
	m := clf.(*Model)
	x := train[0].X
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Explain(x)
	}
}

// perRowOnly hides the model's BatchClassifier implementation so
// benchmarks can measure the legacy per-row interface path.
type perRowOnly struct{ ml.Classifier }

// BenchmarkForestScoreBatch measures fleet-style scoring through the
// flattened batch kernel at GOMAXPROCS workers.
func BenchmarkForestScoreBatch(b *testing.B) {
	clf, err := (&Trainer{Trees: 100, MaxDepth: 12, Seed: 1}).Train(mltest.View(benchData(2000)))
	if err != nil {
		b.Fatal(err)
	}
	probe := mltest.View(rings(10000, 2))
	clf.(*Model).flatten() // compile outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ml.BatchScoresView(clf, probe, 0)
	}
}

// BenchmarkForestScorePerRow is the same workload through the per-row
// interface path (batch detection suppressed), the speedup denominator.
func BenchmarkForestScorePerRow(b *testing.B) {
	clf, err := (&Trainer{Trees: 100, MaxDepth: 12, Seed: 1}).Train(mltest.View(benchData(2000)))
	if err != nil {
		b.Fatal(err)
	}
	probe := mltest.View(rings(10000, 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ml.BatchScoresView(perRowOnly{clf}, probe, 0)
	}
}
