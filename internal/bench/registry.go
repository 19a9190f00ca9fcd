package bench

// Experiment couples an id with its runner and the claim it reproduces.
type Experiment struct {
	ID    string
	Claim string
	Run   func(Scale) (*Table, error)
}

// Experiments lists every experiment in order. Each reproduces one
// quantitative claim of the paper; `wfbench -list` prints this list.
func Experiments() []Experiment {
	return []Experiment{
		{"E1", "step bound O(κ²L²T) per attempt (Theorem 6.1)", E1StepBound},
		{"E2", "success probability ≥ 1/C_p vs adaptive player (Theorem 6.9)", E2Fairness},
		{"E3", "dining philosophers: p ≥ 1/4, O(1) steps (Section 1)", E3Philosophers},
		{"E4", "retry-until-success in O(κ³L³T) expected steps (Corollary)", E4Retry},
		{"E5", "unknown bounds: ≤ log(κLT) degradation (Theorem 6.10)", E5Unknown},
		{"E6", "active set adaptivity: O(k) ops, O(1) getSet (Section 5.1)", E6ActiveSet},
		{"E7", "idempotence: constant overhead, appears-once (Theorem 4.2)", E7Idempotence},
		{"E8", "wait-free vs lock-free vs blocking under stalls (Sections 1, 3)", E8Baselines},
		{"E9", "ablation of the fixed delays (Observation 6.7)", E9DelayAblation},
		{"E10", "native throughput practicality (Section 7)", E10Native},
		{"E11", "point-contention adaptivity vs O(P) universal construction (Section 3)", E11Adaptivity},
	}
}

// Lookup finds an experiment by id, or nil.
func Lookup(id string) *Experiment {
	for _, e := range Experiments() {
		if e.ID == id {
			return &e
		}
	}
	return nil
}
