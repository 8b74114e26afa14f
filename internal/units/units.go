// Package units provides the size, time and money quantities shared by the
// RAQO planner, the cluster simulator and the execution simulator.
//
// Internally the models work in float64 gigabytes and float64 seconds; this
// package provides typed wrappers and formatting for API boundaries so that
// a container size is not accidentally mixed up with a data size in bytes.
package units

import (
	"fmt"
	"math"
)

// Bytes is a data size in bytes.
type Bytes int64

// Common data sizes.
const (
	KB Bytes = 1 << 10
	MB Bytes = 1 << 20
	GB Bytes = 1 << 30
	TB Bytes = 1 << 40
)

// GBf returns the size in (fractional) gigabytes.
func (b Bytes) GBf() float64 { return float64(b) / float64(GB) }

// FromGB converts fractional gigabytes to Bytes, rounding to the nearest byte.
func FromGB(gb float64) Bytes { return Bytes(math.Round(gb * float64(GB))) }

// FromMB converts fractional megabytes to Bytes, rounding to the nearest byte.
func FromMB(mb float64) Bytes { return Bytes(math.Round(mb * float64(MB))) }

// String renders the size with a binary-prefix unit, e.g. "5.10GB".
func (b Bytes) String() string {
	abs := b
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= TB:
		return fmt.Sprintf("%.2fTB", float64(b)/float64(TB))
	case abs >= GB:
		return fmt.Sprintf("%.2fGB", float64(b)/float64(GB))
	case abs >= MB:
		return fmt.Sprintf("%.2fMB", float64(b)/float64(MB))
	case abs >= KB:
		return fmt.Sprintf("%.2fKB", float64(b)/float64(KB))
	}
	return fmt.Sprintf("%dB", int64(b))
}

// Seconds is a duration in seconds. The execution simulator reports virtual
// (simulated) time, so time.Duration would be misleading; a plain float64
// wrapper keeps the unit explicit.
type Seconds float64

// String renders the duration, e.g. "1234.5s".
func (s Seconds) String() string { return fmt.Sprintf("%.1fs", float64(s)) }

// GBSeconds is the resource-usage currency of serverless analytics:
// (memory reserved in GB) x (seconds held). The paper reports "TB * sec";
// TBSeconds converts.
type GBSeconds float64

// TBSeconds returns the usage in TB·s, the unit used in the paper's Figure 2.
func (g GBSeconds) TBSeconds() float64 { return float64(g) / 1024 }

// String renders the usage, e.g. "12.3 TB·s".
func (g GBSeconds) String() string { return fmt.Sprintf("%.3f TB·s", g.TBSeconds()) }

// Dollars is a monetary amount.
type Dollars float64

// String renders the amount, e.g. "$12.34".
func (d Dollars) String() string { return fmt.Sprintf("$%.4f", float64(d)) }

// USD is the canonical name for a monetary amount on exported APIs. It is
// an alias (not a distinct type) so the original Dollars call sites and
// the JSON wire shape — a plain number — are unchanged.
type USD = Dollars

// Microdollars returns the amount in integer microdollars, rounded down.
// Telemetry counters are int64-valued, so dollar spend is exported as a
// monotone microdollar counter rather than a float.
func (d Dollars) Microdollars() int64 { return int64(math.Floor(float64(d) * 1e6)) }

// USDPerHour is a capacity price: dollars charged per hour one container
// of an instance class is provisioned, whether or not it is allocated.
type USDPerHour float64

// Over returns the cost of holding one unit for the given virtual seconds.
func (r USDPerHour) Over(seconds float64) USD { return USD(float64(r) * seconds / 3600) }

// String renders the rate, e.g. "$0.0520/hr".
func (r USDPerHour) String() string { return fmt.Sprintf("$%.4f/hr", float64(r)) }

// USDPerGBSecond is a usage price: dollars charged per GB·s of memory
// actually reserved — the serverless billing currency of the paper.
type USDPerGBSecond float64

// Over returns the cost of the given usage.
func (r USDPerGBSecond) Over(g GBSeconds) USD { return USD(float64(r) * float64(g)) }

// String renders the rate, e.g. "$0.000010/GB·s".
func (r USDPerGBSecond) String() string { return fmt.Sprintf("$%.6f/GB·s", float64(r)) }
