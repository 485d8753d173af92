package dataset

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func benchDataset(b *testing.B, drives, days int) *Dataset {
	b.Helper()
	d := New()
	for dr := 0; dr < drives; dr++ {
		sn := fmt.Sprintf("D%04d", dr)
		for day := 0; day < days; day += 1 + (dr+day)%3 {
			r := rec(sn, day)
			r.WCounts[0] = float64(day % 2)
			if err := d.Append(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	return d
}

// BenchmarkPreparePipelineWorkers compares the serial fused
// clean+cumulate pass against the full per-drive fan-out.
func BenchmarkPreparePipelineWorkers(b *testing.B) {
	f, err := FrameFromDataset(benchDataset(b, 200, 120))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=gomaxprocs", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			opts := PipelineOptions{Policy: DefaultGapPolicy(), Workers: bc.workers}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := PreparePipeline(f, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTelemetryWrite compares the container encoders on the same
// frame; BenchmarkTelemetryRead compares the decoders on each
// format's own bytes.
func BenchmarkTelemetryWrite(b *testing.B) {
	f, err := FrameFromDataset(benchDataset(b, 200, 120))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("csv", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := WriteCSVFrame(io.Discard, f); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, bc := range []struct {
		name    string
		workers int
	}{{"mfpac/workers=1", 1}, {"mfpac/workers=gomaxprocs", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := WriteMFPACWorkers(io.Discard, f, bc.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTelemetryRead(b *testing.B) {
	f, err := FrameFromDataset(benchDataset(b, 200, 120))
	if err != nil {
		b.Fatal(err)
	}
	var csvBuf, pacBuf bytes.Buffer
	if err := WriteCSVFrame(&csvBuf, f); err != nil {
		b.Fatal(err)
	}
	if err := WriteMFPAC(&pacBuf, f); err != nil {
		b.Fatal(err)
	}
	b.Run("csv", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ReadCSVFrame(bytes.NewReader(csvBuf.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, bc := range []struct {
		name    string
		workers int
	}{{"mfpac/workers=1", 1}, {"mfpac/workers=gomaxprocs", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := readMFPAC(bytes.NewReader(pacBuf.Bytes()), pacBuf.Len(), bc.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// A file reports its size, so ReadTelemetry reads it into one
	// buffer of that size.
	path := filepath.Join(b.TempDir(), "fleet.mfpac")
	if err := os.WriteFile(path, pacBuf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Run("mfpac-file/workers=1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			file, err := os.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			_, err = ReadTelemetryWorkers(file, 1)
			file.Close()
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
