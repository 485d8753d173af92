// Package firmware models SSD firmware versions and their effect on
// drive reliability (the paper's Observation #2: earlier firmware
// versions have higher failure rates, and most consumer drives never
// update off the version they shipped with).
//
// Vendors use incompatible naming conventions (strings vs numerics), so
// the modelling layer label-encodes versions per vendor by release
// order; this package owns both the per-vendor registries and the
// encoder.
package firmware

import (
	"fmt"
	"sort"
)

// Version is a vendor-assigned firmware version string, e.g. "EXA7301Q".
type Version string

// Release describes one firmware release of a vendor.
type Release struct {
	Version Version
	// Seq is the release order within the vendor, starting at 1 for the
	// earliest release. The paper labels releases i_F_j by vendor i and
	// sequence j.
	Seq int
	// HazardMultiplier scales the drive's baseline failure hazard while
	// it runs this release. Earlier releases carry larger multipliers
	// (Fig. 3: the earlier the firmware version, the higher the failure
	// rate). 1.0 means no excess hazard.
	HazardMultiplier float64
	// ShipShare is the fraction of the vendor's drives that shipped
	// with (and, per Observation #2, mostly stayed on) this release.
	// Shares of a vendor's releases sum to 1.
	ShipShare float64
}

// Registry holds the ordered firmware releases of a single vendor.
type Registry struct {
	vendor   string
	releases []Release // sorted by Seq
	byVer    map[Version]int
}

// NewRegistry builds a registry for vendor from its releases. Releases
// are re-sorted by Seq. NewRegistry returns an error when releases is
// empty, sequences collide, versions collide, a hazard multiplier is
// not positive, or ship shares do not sum to 1 (±1e-6).
func NewRegistry(vendor string, releases []Release) (*Registry, error) {
	if len(releases) == 0 {
		return nil, fmt.Errorf("firmware: vendor %s: no releases", vendor)
	}
	rs := make([]Release, len(releases))
	copy(rs, releases)
	sort.Slice(rs, func(i, j int) bool { return rs[i].Seq < rs[j].Seq })

	r := &Registry{
		vendor:   vendor,
		releases: rs,
		byVer:    make(map[Version]int, len(rs)),
	}
	var shareSum float64
	for i, rel := range rs {
		if rel.Seq <= 0 {
			return nil, fmt.Errorf("firmware: vendor %s: release %q has non-positive seq %d", vendor, rel.Version, rel.Seq)
		}
		if i > 0 && rel.Seq == rs[i-1].Seq {
			return nil, fmt.Errorf("firmware: vendor %s: duplicate seq %d", vendor, rel.Seq)
		}
		if _, dup := r.byVer[rel.Version]; dup {
			return nil, fmt.Errorf("firmware: vendor %s: duplicate version %q", vendor, rel.Version)
		}
		if rel.HazardMultiplier <= 0 {
			return nil, fmt.Errorf("firmware: vendor %s: release %q has non-positive hazard multiplier %g", vendor, rel.Version, rel.HazardMultiplier)
		}
		if rel.ShipShare < 0 {
			return nil, fmt.Errorf("firmware: vendor %s: release %q has negative ship share %g", vendor, rel.Version, rel.ShipShare)
		}
		r.byVer[rel.Version] = i
		shareSum += rel.ShipShare
	}
	if shareSum < 1-1e-6 || shareSum > 1+1e-6 {
		return nil, fmt.Errorf("firmware: vendor %s: ship shares sum to %g, want 1", vendor, shareSum)
	}
	return r, nil
}

// MustNewRegistry is like NewRegistry but panics on error. It is meant
// for statically-known registries.
func MustNewRegistry(vendor string, releases []Release) *Registry {
	r, err := NewRegistry(vendor, releases)
	if err != nil {
		panic(err)
	}
	return r
}

// Releases returns the vendor's releases in sequence order. The slice
// is a copy.
func (r *Registry) Releases() []Release {
	out := make([]Release, len(r.releases))
	copy(out, r.releases)
	return out
}

// Len returns the number of releases.
func (r *Registry) Len() int { return len(r.releases) }

// At returns the i'th release in sequence order. Unlike Releases it
// does not copy the backing slice, so per-drive sampling loops can
// iterate the catalogue without allocating.
func (r *Registry) At(i int) Release { return r.releases[i] }

// ByVersion returns the release carrying version v.
func (r *Registry) ByVersion(v Version) (Release, bool) {
	i, ok := r.byVer[v]
	if !ok {
		return Release{}, false
	}
	return r.releases[i], true
}

// Label returns the paper's release label, e.g. "I_F_2" for the second
// release of vendor "I".
func (r *Registry) Label(seq int) string {
	return fmt.Sprintf("%s_F_%d", r.vendor, seq)
}

// Encoder label-encodes firmware version strings into dense numeric
// codes, as the paper's preprocessing step does for the character-typed
// FirmwareVersion column. Codes are assigned by release order when the
// version is known to the registry, so the encoding preserves the
// "earlier firmware" ordering the model exploits; unknown versions get
// fresh codes after the known range in first-seen order.
type Encoder struct {
	reg    *Registry
	extra  map[Version]float64
	nextID float64
}

// NewEncoder returns an encoder backed by registry reg. A nil reg
// yields an encoder that assigns first-seen-order codes starting at 1.
func NewEncoder(reg *Registry) *Encoder {
	e := &Encoder{reg: reg, extra: make(map[Version]float64), nextID: 1}
	if reg != nil {
		e.nextID = float64(reg.Len() + 1)
	}
	return e
}

// Encode returns the numeric code of version v, registering it if
// needed. Codes are stable for the lifetime of the encoder.
func (e *Encoder) Encode(v Version) float64 {
	if code, ok := e.Lookup(v); ok {
		return code
	}
	code := e.nextID
	e.extra[v] = code
	e.nextID++
	return code
}

// Lookup returns the code of version v without registering it,
// reporting whether v has one.
func (e *Encoder) Lookup(v Version) (float64, bool) {
	if e.reg != nil {
		if rel, ok := e.reg.ByVersion(v); ok {
			return float64(rel.Seq), true
		}
	}
	code, ok := e.extra[v]
	return code, ok
}

// Unregistered returns the registry-unknown versions the encoder has
// coded, in code order (first-seen order).
func (e *Encoder) Unregistered() []Version {
	out := make([]Version, 0, len(e.extra))
	for v := range e.extra {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return e.extra[out[i]] < e.extra[out[j]] })
	return out
}
