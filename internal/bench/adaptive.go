package bench

import (
	"fmt"
	"strings"

	"wflocks"
)

// Variant names a delay regime for benchmark managers. The map, cache
// and txn families sweep both by default so the tables show what each
// regime costs on the same workload.
type Variant string

const (
	// VariantKnown is the paper's base algorithm: fixed delays
	// T0 = c·κ²L²T and T1 = c′·κLT, configured with WithKappa and the
	// benchmark calibration WithDelayConstants(1, 1). It needs the
	// contention bound κ up front and pays the full worst-case delays
	// on every slow-path attempt regardless of actual contention.
	VariantKnown Variant = "known"
	// VariantAdaptive is the unknown-bounds variant (paper Section 6.2,
	// Theorem 6.10), configured with WithUnknownBounds: back-off delays
	// padded to powers of two track the actual point contention, at the
	// price of a log factor in the success bound. This is the library's
	// recommended default.
	VariantAdaptive Variant = "adaptive"
)

// AllVariants is the default sweep order: the recommended adaptive
// regime first, then the paper's known-bounds base algorithm.
var AllVariants = []Variant{VariantAdaptive, VariantKnown}

// ParseVariants parses a -variant flag value: "known", "adaptive", or
// "both"/"" for the full sweep.
func ParseVariants(s string) ([]Variant, error) {
	switch strings.ToLower(s) {
	case "", "both":
		return AllVariants, nil
	case string(VariantKnown):
		return []Variant{VariantKnown}, nil
	case string(VariantAdaptive):
		return []Variant{VariantAdaptive}, nil
	}
	return nil, fmt.Errorf("unknown variant %q (want known, adaptive or both)", s)
}

// NewManager builds a benchmark manager in the given delay regime with
// shared sizing: procs serves as κ for the known-bounds regime and as P
// for the adaptive one, so a single worker count parameterizes both.
// procs must be a true upper bound on concurrently contending
// goroutines: exceeding it voids the fairness bound under known bounds
// and is a hard error in the adaptive core, so callers size it from
// their worker and connection limits, not from typical load. extra
// options (WithMetrics, WithTracing, ...) are appended after the
// regime's own, so they can refine but not override it.
func NewManager(v Variant, procs, maxLocks, maxCritical int, extra ...wflocks.Option) (*wflocks.Manager, error) {
	var opts []wflocks.Option
	switch v {
	case VariantAdaptive:
		opts = []wflocks.Option{
			wflocks.WithUnknownBounds(procs),
			wflocks.WithMaxLocks(maxLocks),
			wflocks.WithMaxCriticalSteps(maxCritical),
		}
	case VariantKnown:
		opts = []wflocks.Option{
			wflocks.WithKappa(procs),
			wflocks.WithMaxLocks(maxLocks),
			wflocks.WithMaxCriticalSteps(maxCritical),
			wflocks.WithDelayConstants(1, 1),
		}
	default:
		return nil, fmt.Errorf("bench: unknown variant %q", v)
	}
	return wflocks.New(append(opts, extra...)...)
}
