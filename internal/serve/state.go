package serve

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/atomicio"
	"repro/internal/features"
)

// A scorer killed mid-sweep — a consumer machine powering off, a fleet
// host restarting — resumes from saved state instead of replaying its
// telemetry history. SaveState writes, per drive, its vendor, rolling
// state, flag run, alarm latch and quarantine entry, and per vendor the
// firmware versions its registry does not know, with the codes they
// were given in arrival order. A scorer that restores the state and
// serves the remaining days produces exactly the assessments, sweep
// stats and ledger of one that never stopped, at any Workers or Shards
// setting. Scoring runs are not saved: a drive rebuilds its run on its
// next scored row, which scores bit-identically. The model itself
// travels separately, via modelio.

// stateVersion guards the state layout.
const stateVersion = 1

// persistedState is the on-disk form of the scorer's drive state.
type persistedState struct {
	Version int                                `json:"version"`
	Group   string                             `json:"group"`
	Drives  map[string]persistedDrive          `json:"drives"`
	Unknown map[string][]features.FirmwareCode `json:"unknown_firmware,omitempty"`
}

// persistedDrive is one drive's driveRoll. A quarantined drive keeps
// no rolling state: nothing reads it until ReviveDrive resets it, and
// it may hold the non-finite values that quarantined it.
type persistedDrive struct {
	Vendor      string                    `json:"vendor"`
	Rolling     *features.RollingSnapshot `json:"rolling,omitempty"`
	Consecutive int                       `json:"consecutive"`
	Alarmed     bool                      `json:"alarmed,omitempty"`
	Quarantine  *QuarantineEntry          `json:"quarantine,omitempty"`
}

// SaveState writes the scorer's per-drive and firmware-encoding state
// to w.
func (s *Scorer) SaveState(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := persistedState{
		Version: stateVersion,
		Group:   s.model.Config.Group.String(),
		Drives:  make(map[string]persistedDrive),
		Unknown: s.ext.UnknownFirmware(),
	}
	for i := range s.shards {
		for sn, dr := range s.shards[i].drives {
			pd := persistedDrive{Vendor: dr.vendor, Consecutive: dr.consecutive, Alarmed: dr.alarmed}
			if dr.q.Reason != QuarantineNone {
				q := dr.q
				pd.Quarantine = &q
			} else {
				snap := dr.roll.Snapshot()
				pd.Rolling = &snap
			}
			out.Drives[sn] = pd
		}
	}
	return json.NewEncoder(w).Encode(&out)
}

// SaveStateFile atomically checkpoints the scorer's state to path:
// staged in a same-directory temp file, fsynced, and renamed into
// place, so a crash mid-save leaves the previous checkpoint intact.
func (s *Scorer) SaveStateFile(path string) error {
	return atomicio.WriteFile(path, s.SaveState)
}

// LoadStateFile restores state from a SaveStateFile checkpoint.
func (s *Scorer) LoadStateFile(path string) error {
	f, err := atomicio.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.LoadState(f)
}

// LoadState restores state saved by SaveState. Restore happens at
// startup: the scorer must not have seen a drive yet, and its feature
// group must be the saved one. Each vendor's registry-unknown firmware
// versions are primed again in code order; the state is rejected if
// any comes out with a different code, as it does when a registry
// changed. Nothing changes unless the whole state is accepted.
func (s *Scorer) LoadState(r io.Reader) error {
	var in persistedState
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return fmt.Errorf("serve: decode state: %w", err)
	}
	if in.Version != stateVersion {
		return fmt.Errorf("serve: state version %d, want %d", in.Version, stateVersion)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if in.Group != s.model.Config.Group.String() {
		return fmt.Errorf("serve: state was saved for group %s, scorer runs %s", in.Group, s.model.Config.Group)
	}
	for i := range s.shards {
		if len(s.shards[i].drives) != 0 {
			return fmt.Errorf("serve: cannot restore state after observations began")
		}
	}
	ext, err := features.NewExtractor(s.model.Config.Group, s.registries)
	if err != nil {
		return err
	}
	for vendor, codes := range in.Unknown {
		if err := ext.RestoreFirmware(vendor, codes); err != nil {
			return fmt.Errorf("serve: state firmware codes: %w", err)
		}
	}
	drives := make(map[string]*driveRoll, len(in.Drives))
	for sn, pd := range in.Drives {
		dr, err := restoreDrive(sn, pd)
		if err != nil {
			return err
		}
		drives[sn] = dr
	}
	s.ext = ext
	for sn, dr := range drives {
		s.shards[s.shardOf(sn)].drives[sn] = dr
	}
	return nil
}

// restoreDrive validates one persisted drive and rebuilds its state.
func restoreDrive(sn string, pd persistedDrive) (*driveRoll, error) {
	if pd.Consecutive < 0 {
		return nil, fmt.Errorf("serve: state for drive %q has a negative flag run", sn)
	}
	dr := &driveRoll{vendor: pd.Vendor, consecutive: pd.Consecutive, alarmed: pd.Alarmed}
	if q := pd.Quarantine; q != nil {
		// A record with an empty serial quarantines drive "" as a bad
		// record, so that drive can only appear quarantined.
		if q.SerialNumber != sn || q.Reason <= QuarantineNone || q.Reason > QuarantineUnknownFirmware || pd.Rolling != nil {
			return nil, fmt.Errorf("serve: state for drive %q has a corrupt quarantine entry", sn)
		}
		dr.q = *q
		dr.roll = features.NewRollingState()
		return dr, nil
	}
	if sn == "" || pd.Rolling == nil {
		return nil, fmt.Errorf("serve: state for drive %q is incomplete", sn)
	}
	roll, err := features.RollingFromSnapshot(*pd.Rolling)
	if err != nil {
		return nil, fmt.Errorf("serve: state for drive %q: %w", sn, err)
	}
	dr.roll = roll
	return dr, nil
}
