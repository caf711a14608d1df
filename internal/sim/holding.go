package sim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/traffic"
	"repro/internal/xrand"
)

// HoldingDist selects the call holding-time distribution (unit mean in every
// case, matching the paper's time scaling). The Erlang loss formula is
// insensitive to the holding distribution; the insensitivity study uses
// these variants to check how far that classical property extends to the
// state-protected network (trunk reservation is known to break exact
// insensitivity).
type HoldingDist int

// Unit-mean holding-time families.
const (
	// HoldingExponential is the paper's exp(1) (CV² = 1).
	HoldingExponential HoldingDist = iota
	// HoldingDeterministic holds for exactly 1 (CV² = 0).
	HoldingDeterministic
	// HoldingHyperexp is a balanced two-phase hyperexponential with CV² = 4
	// (bursty holding times).
	HoldingHyperexp
	// HoldingErlang2 is the two-stage Erlang distribution (CV² = 1/2).
	HoldingErlang2
)

// String names the distribution.
func (h HoldingDist) String() string {
	switch h {
	case HoldingExponential:
		return "exponential"
	case HoldingDeterministic:
		return "deterministic"
	case HoldingHyperexp:
		return "hyperexponential(cv2=4)"
	case HoldingErlang2:
		return "erlang-2"
	}
	return fmt.Sprintf("holding(%d)", int(h))
}

// CV2 returns the squared coefficient of variation of the family.
func (h HoldingDist) CV2() float64 {
	switch h {
	case HoldingDeterministic:
		return 0
	case HoldingHyperexp:
		return 4
	case HoldingErlang2:
		return 0.5
	default:
		return 1
	}
}

// draw samples one unit-mean holding time.
func (h HoldingDist) draw(r *rand.Rand) float64 {
	switch h {
	case HoldingDeterministic:
		return 1
	case HoldingHyperexp:
		// Balanced means: with prob p use rate 2p, else rate 2(1−p);
		// p chosen for CV²=4: p = (1 − sqrt(3/5))/2.
		p := (1 - math.Sqrt(3.0/5.0)) / 2
		if r.Float64() < p {
			return xrand.Exp(r, 1/(2*p))
		}
		return xrand.Exp(r, 1/(2*(1-p)))
	case HoldingErlang2:
		return (xrand.Exp(r, 0.5) + xrand.Exp(r, 0.5))
	default:
		return xrand.Exp(r, 1)
	}
}

// GenerateTraceHolding is GenerateTrace with a selectable holding-time
// distribution. HoldingExponential reproduces GenerateTrace's arrival
// sequence but not its holding stream (the draws differ — arrivals and
// holdings use separate substreams so the arrival epochs are identical
// across distributions), so comparisons across distributions should use
// this function for every variant.
//
// Like GenerateTrace, this materializes a fresh stream, here
// NewStreamHolding, and equals a Next drain of it. Calls are ordered by
// (epoch, origin, dest), a pair's equal epochs in draw order, so
// regenerated traces are reproducible byte-for-byte, ties included.
func GenerateTraceHolding(m *traffic.Matrix, horizon float64, seed int64, dist HoldingDist) (*Trace, error) {
	s, err := NewStreamHolding(m, horizon, seed, dist)
	if err != nil {
		return nil, err
	}
	return s.Materialize(), nil
}
