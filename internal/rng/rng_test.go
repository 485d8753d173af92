package rng

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestCookedTableMatchesMathRand pins the derived table's ends to
// math/rand's rngCooked literals. The derivation reads the table back
// out of seed 1's output prefix, so a wrong recurrence index would
// show here as a shifted or garbled word.
func TestCookedTableMatchesMathRand(t *testing.T) {
	head := []int64{-4181792142133755926, -4576982950128230565, 1395769623340756751, 5333664234075297259}
	tail := []int64{8382142935188824023, 9103922860780351547, 4152330101494654406}
	if got := cooked[:len(head)]; !slices.Equal(got, head) {
		t.Errorf("cooked head = %v, want %v", got, head)
	}
	if got := cooked[regLen-len(tail):]; !slices.Equal(got, tail) {
		t.Errorf("cooked tail = %v, want %v", got, tail)
	}
	// Seed 1 is what the table was derived from: its whole register
	// cycle, and a second one after the register wraps, must agree.
	want, got := rand.NewSource(1).(rand.Source64), NewSource(1)
	for i := 0; i < 2*regLen; i++ {
		if w, g := want.Uint64(), got.Uint64(); w != g {
			t.Fatalf("seed 1 draw %d = %d, want %d", i, g, w)
		}
	}
}

// assertSameStream checks draws draws of every Source method and the
// derived rand.Rand draws the code base uses against rand.NewSource.
func assertSameStream(t *testing.T, seed int64, draws int) {
	t.Helper()
	want, got := rand.NewSource(seed).(rand.Source64), NewSource(seed)
	for i := 0; i < draws; i++ {
		if i%2 == 0 {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d Uint64 draw %d = %d, want %d", seed, i, g, w)
			}
		} else if w, g := want.Int63(), got.Int63(); w != g {
			t.Fatalf("seed %d Int63 draw %d = %d, want %d", seed, i, g, w)
		}
	}
	wr, gr := rand.New(rand.NewSource(seed)), rand.New(NewSource(seed))
	for i := 0; i < 200; i++ {
		n := 1 + i*7919
		if w, g := wr.Intn(n), gr.Intn(n); w != g {
			t.Fatalf("seed %d Intn(%d) = %d, want %d", seed, n, g, w)
		}
		if w, g := wr.Int31n(int32(n)), gr.Int31n(int32(n)); w != g {
			t.Fatalf("seed %d Int31n(%d) = %d, want %d", seed, n, g, w)
		}
		if w, g := wr.Float64(), gr.Float64(); math.Float64bits(w) != math.Float64bits(g) {
			t.Fatalf("seed %d Float64 = %v, want %v", seed, g, w)
		}
		if w, g := wr.NormFloat64(), gr.NormFloat64(); math.Float64bits(w) != math.Float64bits(g) {
			t.Fatalf("seed %d NormFloat64 = %v, want %v", seed, g, w)
		}
	}
	ws, gs := make([]int, 50), make([]int, 50)
	for i := range ws {
		ws[i], gs[i] = i, i
	}
	wr.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
	gr.Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
	if !slices.Equal(ws, gs) {
		t.Fatalf("seed %d Shuffle = %v, want %v", seed, gs, ws)
	}
}

// edgeSeeds are the seeds math/rand's reduction treats specially: 0 and
// the multiples of 2³¹−1 (replaced by a fixed seed), negatives (shifted
// up by the modulus), and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 2, 42, mod - 1, mod, mod + 1, -mod, 2 * mod, -2 * mod, 1 << 31, 1 << 62,
	zeroSeed, -zeroSeed, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
}

func TestSourceMatchesMathRand(t *testing.T) {
	for _, s := range edgeSeeds {
		assertSameStream(t, s, 3000)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		assertSameStream(t, r.Int63()-r.Int63(), 3000)
	}
}

// TestReseedRestartsStream seeds a used source, directly and through
// (*rand.Rand).Seed as the pooled generators do, and requires a fresh
// stream.
func TestReseedRestartsStream(t *testing.T) {
	src := NewSource(5)
	r := rand.New(src)
	for _, seed := range []int64{9, 5, 0, -3} {
		for i := 0; i < 1000; i++ {
			r.Int63()
		}
		r.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 2*regLen; i++ {
			if w, g := want.Int63(), r.Int63(); w != g {
				t.Fatalf("reseeded %d draw %d = %d, want %d", seed, i, g, w)
			}
		}
	}
}

// FuzzSourceMatchesMathRand checks any seed's stream, and its restart
// after re-seeding a used source, against rand.NewSource.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, s := range edgeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		assertSameStream(t, seed, 2000)
		src := NewSource(seed ^ 0x5bd1e995)
		for i := 0; i < 700; i++ {
			src.Uint64()
		}
		src.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 2000; i++ {
			if w, g := want.Uint64(), src.Uint64(); w != g {
				t.Fatalf("reseeded %d draw %d = %d, want %d", seed, i, g, w)
			}
		}
	})
}

var sinkSource rand.Source

// BenchmarkSeed re-seeds one pooled-style generator per op, the cost a
// forest pays per tree: math/rand's serial Lehmer chain against this
// package's interleaved chains.
func BenchmarkSeed(b *testing.B) {
	for _, c := range []struct {
		name string
		src  rand.Source
	}{{"std", rand.NewSource(0)}, {"rng", NewSource(0)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.src.Seed(int64(i))
			}
			sinkSource = c.src
		})
	}
}
