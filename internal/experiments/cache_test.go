package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/firmware"
	"repro/internal/simfleet"
)

func runNamed(t testing.TB, c *Context, name string) string {
	t.Helper()
	r, ok := Lookup(name)
	if !ok {
		t.Fatalf("experiment %q is not registered", name)
	}
	res, err := r.Run(c)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res.String()
}

// TestCachesOrderIndependentAndShared runs the paper_repro experiments
// in another order on one context: each must render exactly what it
// renders alone on a fresh context, vendor I must be prepared once plus
// once per non-default gap policy, and the default SFWB RF — fig9's
// SFWB row, fig18's MFPA row, the paper's gap policy and 3:1 ratio —
// must be trained once.
func TestCachesOrderIndependentAndShared(t *testing.T) {
	newCtx := func() *Context {
		c, err := NewContextWith(simfleet.TinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	shared := newCtx()
	for _, name := range []string{"fig18", "ratio", "gaps", "fig9"} {
		got := runNamed(t, shared, name)
		if want := runNamed(t, newCtx(), name); got != want {
			t.Fatalf("%s after other experiments:\n%s\nalone:\n%s", name, got, want)
		}
	}
	if n := shared.work.prepares[primaryVendor]; n != 4 {
		t.Errorf("vendor I prepared %d times, want 4 (shared + 3 gap policies)", n)
	}
	def := shared.PipelineConfig(primaryVendor, features.GroupSFWB).WithDefaults()
	n := 0
	for _, cfg := range shared.work.trained {
		if reflect.DeepEqual(cfg, def) {
			n++
		}
	}
	if n != 1 {
		t.Errorf("default SFWB RF trained %d times, want 1", n)
	}
	// fig9's seven groups, fig18's MFPA row, the three other gap
	// policies and the three other ratios.
	if len(shared.work.trained) != 7+3+3 {
		t.Errorf("%d models trained, want 13", len(shared.work.trained))
	}
}

// resultNeutral lists the core.Config fields the model memo leaves out
// of its key, with why they cannot change a trained model.
var resultNeutral = map[string]string{
	"Workers":    "every parallel stage merges in a fixed order",
	"Registries": "a context passes its own registries to every config",
}

// TestModelKeyCoversConfig walks every core.Config field: changing it
// must change the model key unless resultNeutral lists it, in which
// case the key must not move. A field of a kind the test cannot change
// fails it until someone classifies the field here.
func TestModelKeyCoversConfig(t *testing.T) {
	c := testCtx(t)
	f, err := c.FleetFrame()
	if err != nil {
		t.Fatal(err)
	}
	base := c.PipelineConfig(primaryVendor, features.GroupSFWB).WithDefaults()
	key := modelKeyOf(f, base)
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		cfg := base
		if err := perturb(reflect.ValueOf(&cfg).Elem().Field(i)); err != nil {
			t.Fatalf("Config.%s: %v; add it to the key or to resultNeutral", field.Name, err)
		}
		moved := modelKeyOf(f, cfg) != key
		if _, neutral := resultNeutral[field.Name]; neutral == moved {
			t.Errorf("Config.%s: key moved = %v, neutral = %v", field.Name, moved, neutral)
		}
	}
	// A zero field and its default are the same config.
	zero := c.PipelineConfig(primaryVendor, features.GroupSFWB)
	if modelKeyOf(f, zero) != key {
		t.Error("defaulted and zero-valued configs have different keys")
	}
	// The same config on another fleet is another model.
	other, err := c.thetaFleet()
	if err != nil {
		t.Fatal(err)
	}
	if modelKeyOf(other.Frame, base) == key {
		t.Error("model key ignores the fleet")
	}
}

// perturb changes v to a different value of its type.
func perturb(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 7)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.25)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Struct:
		if v.NumField() == 0 {
			return fmt.Errorf("empty struct")
		}
		return perturb(v.Field(0))
	case reflect.Map:
		if v.Type() != reflect.TypeOf(map[string]*firmware.Registry(nil)) {
			return fmt.Errorf("map of type %s", v.Type())
		}
		v.Set(reflect.ValueOf(map[string]*firmware.Registry{"X": nil}))
	default:
		return fmt.Errorf("kind %s", v.Kind())
	}
	return nil
}

// BenchmarkPaperReproPass runs one paper_repro pass — fig9, fig18, gaps
// and ratio — per iteration on a fresh failure-scale-0.02 context built
// off the timer, so
//
//	go test -bench PaperReproPass -cpuprofile cpu.out ./internal/experiments
//
// profiles the researcher's path without the bench module.
func BenchmarkPaperReproPass(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := NewContext(0.02, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, name := range []string{"fig9", "fig18", "gaps", "ratio"} {
			runNamed(b, c, name)
		}
	}
}

// TestWorkersRenderIdentically runs the experiments whose models train
// concurrently — fig9's groups, fig18's baselines, and the ratio and
// gap ablations — on a serial context and on a two-worker one: every
// rendering must match, and both must train the same configs in the
// same order.
func TestWorkersRenderIdentically(t *testing.T) {
	ctxs := make([]*Context, 2)
	for i, workers := range []int{1, 2} {
		cfg := simfleet.TinyConfig()
		cfg.Workers = workers
		c, err := NewContextWith(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctxs[i] = c
	}
	for _, name := range []string{"fig9", "fig18", "ratio", "gaps"} {
		if serial, two := runNamed(t, ctxs[0], name), runNamed(t, ctxs[1], name); serial != two {
			t.Fatalf("%s at 1 worker:\n%s\nat 2 workers:\n%s", name, serial, two)
		}
	}
	trained := func(c *Context) []string {
		var out []string
		for _, cfg := range c.work.trained {
			cfg.Workers, cfg.Registries = 0, nil
			out = append(out, fmt.Sprintf("%+v", cfg))
		}
		return out
	}
	if a, b := trained(ctxs[0]), trained(ctxs[1]); !reflect.DeepEqual(a, b) {
		t.Fatalf("trained list differs:\n1 worker:  %v\n2 workers: %v", a, b)
	}
}

// TestTrainAllDedupsAndNamesFirstFailure checks trainAll's contract: a
// config repeated within one call trains once and both positions get
// its fit; on failure the index returned is the first failing config
// in list order, whether it fails in the serial pass (an unknown
// vendor needs its own preparation, which fails) or in the fan-out (a
// learning window too short to hold a failure).
func TestTrainAllDedupsAndNamesFirstFailure(t *testing.T) {
	for _, workers := range []int{1, 2} {
		cfg := simfleet.TinyConfig()
		cfg.Workers = workers
		c, err := NewContextWith(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f, err := c.FleetFrame()
		if err != nil {
			t.Fatal(err)
		}
		sfwb := c.PipelineConfig(primaryVendor, features.GroupSFWB)
		s := c.PipelineConfig(primaryVendor, features.GroupS)
		fits, _, err := c.trainAll(f, c.Fleet.Tickets, []core.Config{sfwb, s, sfwb})
		if err != nil {
			t.Fatal(err)
		}
		if len(c.work.trained) != 2 || fits[0] != fits[2] || fits[0] == fits[1] {
			t.Fatalf("workers=%d: %d models trained for two distinct configs", workers, len(c.work.trained))
		}

		noVendor := c.PipelineConfig("no-such-vendor", features.GroupSFWB)
		short := c.PipelineConfig(primaryVendor, features.GroupSF)
		short.TrainFrac = 0.01
		if _, _, err := c.trainAll(f, c.Fleet.Tickets, []core.Config{short}); err == nil {
			t.Fatal("a learning window without failures trained")
		}
		for _, tc := range []struct {
			cfgs []core.Config
			want int
		}{
			{[]core.Config{sfwb, short, noVendor}, 1},
			{[]core.Config{sfwb, noVendor, short}, 1},
			{[]core.Config{noVendor, short}, 0},
		} {
			if _, i, err := c.trainAll(f, c.Fleet.Tickets, tc.cfgs); err == nil || i != tc.want {
				t.Errorf("workers=%d: failed at %d (%v), want %d", workers, i, err, tc.want)
			}
		}
	}
}
