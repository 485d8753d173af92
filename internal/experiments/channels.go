package experiments

import (
	"repro/internal/core"
	"repro/internal/features"
)

// ChannelsResult extends the Table V study with leave-one-channel-out
// groups: each SFWB collection channel has a real client-side cost
// (BSOD parsing needs crash-dump access, WindowsEvent collection needs
// an Event Log subscription), so the operational question is what each
// channel is worth. Rows are the full set plus the four drop-one
// variants.
type ChannelsResult struct {
	Rows []MetricRow
}

// Channels trains RF on vendor I for the full SFWB set and each
// leave-one-out variant.
func (c *Context) Channels() (*ChannelsResult, error) {
	groupIs := func(g features.Group) func(*core.Config) {
		return func(cfg *core.Config) { cfg.Group = g }
	}
	rows, err := c.runVariants([]variant{
		{setting: "SFWB (all channels)", mutate: groupIs(features.GroupSFWB)},
		{setting: "drop F  (=SWB)", mutate: groupIs(features.Group{SMART: true, WEvents: true, BSOD: true})},
		{setting: "drop W  (=SFB)", mutate: groupIs(features.GroupSFB)},
		{setting: "drop B  (=SFW)", mutate: groupIs(features.GroupSFW)},
		{setting: "drop S  (=FWB)", mutate: groupIs(features.Group{Firmware: true, WEvents: true, BSOD: true})},
	})
	if err != nil {
		return nil, err
	}
	res := &ChannelsResult{}
	for _, row := range rows {
		res.Rows = append(res.Rows, MetricRow{
			Name: row.Setting,
			TPR:  row.TPR,
			FPR:  row.FPR,
			AUC:  row.AUC,
		})
	}
	return res, nil
}

// String renders the study.
func (r *ChannelsResult) String() string {
	t := newTable("Channel-drop study: cost of not collecting each SFWB channel (RF, vendor I)",
		"Channels", "TPR", "FPR", "AUC")
	for _, row := range r.Rows {
		t.addRow(row.Name, f4(row.TPR), f4(row.FPR), f4(row.AUC))
	}
	return t.String()
}
