// Package ticket models after-sales trouble tickets and the RaSRF
// ("Replaced as SSD_Related Failures") taxonomy the paper mines from
// them (Table I). Tickets are how consumer storage systems learn that a
// drive failed: the user brings the machine in some days after the
// actual failure, so a ticket records the *initial maintenance time*
// (IMT), not the failure time — the gap is the "ti" interval that the
// labelling layer's θ threshold compensates for.
package ticket

import (
	"fmt"
	"sort"
)

// Level is the coarse failure level of a RaSRF entry.
type Level int

const (
	// DriveLevel failures name the SSD directly (31.62% in Table I).
	DriveLevel Level = iota
	// SystemLevel failures surface as boot/shutdown or runtime system
	// errors (68.38% in Table I).
	SystemLevel
)

// String returns the level's name as used in Table I.
func (l Level) String() string {
	switch l {
	case DriveLevel:
		return "Drive Level"
	case SystemLevel:
		return "System Level"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Category is the mid-level RaSRF category of Table I.
type Category int

const (
	ComponentsFailure Category = iota
	BootShutdownFailure
	SystemRunningFailure
	ApplicationError
)

// String returns the category's name as used in Table I.
func (c Category) String() string {
	switch c {
	case ComponentsFailure:
		return "Components failure"
	case BootShutdownFailure:
		return "Boot/Shutdown failure"
	case SystemRunningFailure:
		return "System running failure"
	case ApplicationError:
		return "Application error"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Cause is one row of Table I: a concrete RaSRF failure cause with its
// observed share of all SSD-related replacements.
type Cause struct {
	Level    Level
	Category Category
	Name     string
	// Share is the fraction of RaSRF tickets attributed to this cause
	// (Table I's Pct. column, as a fraction). Shares sum to 1.
	Share float64
}

// Causes lists Table I in row order. The paper prints a single 21.44%
// against "Blue/Black screen after startup" and leaves the next two
// boot/shutdown rows blank while stating that 48.21% of failures occur
// during startup/shutdown; the two blank rows are split so the group
// totals match the text (boot/shutdown 48.22%, running incl. app
// errors 20.16%, drive level 31.62%).
var causes = []Cause{
	{DriveLevel, ComponentsFailure, "Storage drive failure", 0.3113},
	{DriveLevel, ComponentsFailure, "Firmware upgrade failure", 0.0042},
	{DriveLevel, ComponentsFailure, "Overtemperature", 0.0007},
	{SystemLevel, BootShutdownFailure, "Blue/Black screen after startup", 0.2144},
	{SystemLevel, BootShutdownFailure, "Unable to boot/shutdown", 0.1500},
	{SystemLevel, BootShutdownFailure, "Bootloop", 0.0858},
	{SystemLevel, BootShutdownFailure, "Stuck startup icon", 0.0320},
	{SystemLevel, SystemRunningFailure, "Response delay/blue screen", 0.0866},
	{SystemLevel, SystemRunningFailure, "Unauthorized system installation", 0.0543},
	{SystemLevel, SystemRunningFailure, "System partition damage", 0.0258},
	{SystemLevel, SystemRunningFailure, "Automatic shutdown/restart", 0.0194},
	{SystemLevel, SystemRunningFailure, "System upgrade/recovery failure", 0.0078},
	{SystemLevel, ApplicationError, "Apps crash/report errors/stuck", 0.0077},
}

// AllCauses returns the RaSRF taxonomy in Table I row order. The slice
// is a copy.
func AllCauses() []Cause {
	out := make([]Cause, len(causes))
	copy(out, causes)
	return out
}

// Ticket is one after-sales trouble ticket identifying a replaced SSD.
type Ticket struct {
	// SerialNumber identifies the replaced drive (the S/N joined
	// against telemetry when labelling).
	SerialNumber string
	// IMT is the initial maintenance time as a day index on the same
	// axis as telemetry timestamps.
	IMT int
	// Cause indexes into AllCauses().
	Cause int
	// Description is the free-text symptom from the ticket.
	Description string
}

// Store is an in-memory RaSRF ticket store with S/N lookup, the
// interface the labelling layer consumes.
type Store struct {
	bySN map[string][]Ticket
	n    int
}

// NewStore returns an empty ticket store.
func NewStore() *Store {
	return &Store{bySN: make(map[string][]Ticket)}
}

// Add inserts t into the store. Tickets for the same S/N are kept
// sorted by IMT.
func (s *Store) Add(t Ticket) {
	list := s.bySN[t.SerialNumber]
	list = append(list, t)
	sort.Slice(list, func(i, j int) bool { return list[i].IMT < list[j].IMT })
	s.bySN[t.SerialNumber] = list
	s.n++
}

// Len returns the number of stored tickets.
func (s *Store) Len() int { return s.n }

// Lookup returns all tickets filed for sn, earliest first. The slice is
// shared with the store; callers must not modify it.
func (s *Store) Lookup(sn string) []Ticket {
	return s.bySN[sn]
}

// First returns the earliest ticket for sn, if any.
func (s *Store) First(sn string) (Ticket, bool) {
	list := s.bySN[sn]
	if len(list) == 0 {
		return Ticket{}, false
	}
	return list[0], true
}

// SerialNumbers returns the distinct drive serial numbers with at least
// one ticket, in sorted order.
func (s *Store) SerialNumbers() []string {
	sns := make([]string, 0, len(s.bySN))
	for sn := range s.bySN {
		sns = append(sns, sn)
	}
	sort.Strings(sns)
	return sns
}

// CountByCause tallies stored tickets by cause index.
func (s *Store) CountByCause() []int {
	out := make([]int, len(causes))
	for _, list := range s.bySN {
		for _, t := range list {
			out[t.Cause]++
		}
	}
	return out
}

// Until returns a new store containing only tickets with IMT on or
// before day — what the after-sales pipeline has seen as of that date.
func (s *Store) Until(day int) *Store {
	out := NewStore()
	for _, list := range s.bySN {
		for _, t := range list {
			if t.IMT <= day {
				out.Add(t)
			}
		}
	}
	return out
}
