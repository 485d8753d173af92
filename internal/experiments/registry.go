package experiments

import (
	"fmt"
)

// Registry lists every experiment by the paper artefact it regenerates.
// cmd/mfpareport iterates it; tests assert it stays complete.
func Registry() []Runner {
	wrap := func(name, desc string, run func(c *Context) (fmt.Stringer, error)) Runner {
		return Runner{Name: name, Description: desc, Run: run}
	}
	return []Runner{
		wrap("table1", "RaSRF failure taxonomy shares", func(c *Context) (fmt.Stringer, error) { return c.TableI() }),
		wrap("table2", "SMART attribute catalogue", func(c *Context) (fmt.Stringer, error) { return c.TableII() }),
		wrap("table5", "Feature group definitions", func(c *Context) (fmt.Stringer, error) { return c.TableV() }),
		wrap("table6", "Dataset summary per vendor", func(c *Context) (fmt.Stringer, error) { return c.TableVI() }),
		wrap("fig2", "Failure distribution over power-on hours (bathtub)", func(c *Context) (fmt.Stringer, error) { return c.Fig2() }),
		wrap("fig3", "Failure rate per firmware version", func(c *Context) (fmt.Stringer, error) { return c.Fig3() }),
		wrap("fig4", "Cumulative W_161: faulty vs healthy", func(c *Context) (fmt.Stringer, error) { return c.Fig4() }),
		wrap("fig5", "Cumulative B_50: faulty vs healthy", func(c *Context) (fmt.Stringer, error) { return c.Fig5() }),
		wrap("fig6", "Telemetry discontinuity structure", func(c *Context) (fmt.Stringer, error) { return c.Fig6() }),
		wrap("fig9", "MFPA across feature groups (+Fig13)", func(c *Context) (fmt.Stringer, error) { return c.Fig9() }),
		wrap("fig10", "MFPA across ML algorithms (+Fig14)", func(c *Context) (fmt.Stringer, error) { return c.Fig10() }),
		wrap("fig11", "MFPA across vendors (+Fig15)", func(c *Context) (fmt.Stringer, error) { return c.Fig11() }),
		wrap("fig12", "Five months without iteration (+Fig16)", func(c *Context) (fmt.Stringer, error) { return c.Fig12() }),
		wrap("fig17", "Sequential forward feature selection", func(c *Context) (fmt.Stringer, error) { return c.Fig17() }),
		wrap("fig18", "MFPA vs state-of-the-art baselines", func(c *Context) (fmt.Stringer, error) { return c.Fig18() }),
		wrap("fig19", "TPR vs lookahead window", func(c *Context) (fmt.Stringer, error) { return c.Fig19() }),
		wrap("fig20", "Per-stage overhead", func(c *Context) (fmt.Stringer, error) { return c.Fig20() }),
		wrap("gridsearch", "Hyper-parameter grid search over TS-CV", func(c *Context) (fmt.Stringer, error) { return c.GridSearch() }),
		wrap("importance", "RF feature importance over the SFWB pool", func(c *Context) (fmt.Stringer, error) { return c.Importance() }),
		wrap("channels", "Leave-one-channel-out collection-cost study", func(c *Context) (fmt.Stringer, error) { return c.Channels() }),
		wrap("seeds", "Across-seed stability of per-vendor models", func(c *Context) (fmt.Stringer, error) { return c.Seeds() }),
		wrap("costs", "Cost-sensitive operating points", func(c *Context) (fmt.Stringer, error) { return c.CostStudy() }),
		wrap("theta", "Ablation: θ sensitivity", func(c *Context) (fmt.Stringer, error) { return c.AblationTheta() }),
		wrap("gaps", "Ablation: discontinuity policy", func(c *Context) (fmt.Stringer, error) { return c.AblationGapPolicy() }),
		wrap("segmentation", "Ablation: timepoint vs random split", func(c *Context) (fmt.Stringer, error) { return c.AblationSegmentation() }),
		wrap("crossval", "Ablation: TS-CV vs k-fold estimate bias", func(c *Context) (fmt.Stringer, error) { return c.AblationCrossValidation() }),
		wrap("ratio", "Ablation: under-sampling ratio", func(c *Context) (fmt.Stringer, error) { return c.AblationSampling() }),
		wrap("cumulative", "Ablation: cumulative vs daily counters", func(c *Context) (fmt.Stringer, error) { return c.AblationCumulative() }),
		wrap("poswindow", "Ablation: positive window 7/14/21", func(c *Context) (fmt.Stringer, error) { return c.AblationPositiveWindow() }),
	}
}

// Lookup finds a runner by name.
func Lookup(name string) (Runner, bool) {
	for _, r := range Registry() {
		if r.Name == name {
			return r, true
		}
	}
	return Runner{}, false
}
