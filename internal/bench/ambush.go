package bench

import (
	"wflocks/internal/adversary"
	"wflocks/internal/core"
	"wflocks/internal/env"
	"wflocks/internal/idem"
	"wflocks/internal/sched"
)

// ambushThreshold is the top-quartile priority cutoff: priorities are
// uniform in (0, 2^63), so a rival above 3·2^61 is in the strongest
// quarter of the field.
const ambushThreshold int64 = 3 << 61

// runAmbush runs the Section 2 "ambush" player adversary: a rival
// attempts continuously on a single lock, publishing its descriptor;
// the adaptive adversary starts the target's attempt only at moments
// when the rival's current attempt is revealed, still active, and has a
// top-quartile priority. Theorem 6.9 promises the target still wins
// with probability ≥ 1/C_p = 1/2 (κ=2, L=1): the helping phase makes
// the target complete the observed rival before competing.
//
// It returns the target's success rate and attempt count.
func runAmbush(scale Scale, disableDelays bool) (float64, int, error) {
	seeds := scale.pick(4, 10)
	perSeed := scale.pick(10, 40)
	wins, total := 0, 0
	for s := 1; s <= seeds; s++ {
		sys, err := core.NewSystem(core.Config{
			Kappa: 2, MaxLocks: 1, MaxThunkSteps: ThunkSteps(1, 0),
			DelayC: 4, DelayC1: 8, DisableDelays: disableDelays,
		})
		if err != nil {
			return 0, 0, err
		}
		l := sys.NewLock()
		locks := []*core.Lock{l}
		var tr adversary.Tracker
		stop := false

		sim := sched.New(sched.NewRandom(2, uint64(s)), uint64(s))
		// Rival: continuous attempts, observable.
		sim.Spawn(func(e env.Env) {
			for !stop {
				a := sys.NewAttempt(locks, noop, 1)
				tr.Publish(a.Descriptor())
				a.Run(e)
				tr.Clear()
				e.Step()
			}
		})
		// Target, driven by the adaptive player adversary.
		seedWins, seedTotal := 0, 0
		sim.Spawn(func(e env.Env) {
			defer func() { stop = true }()
			for k := 0; k < perSeed; k++ {
				// Ambush point: wait for a strong revealed rival. If
				// none shows up in the stall budget, attack anyway —
				// every target attempt is counted either way.
				adversary.AwaitStrongRival(e, &tr, ambushThreshold, 500_000)
				seedTotal++
				if sys.TryLocks(e, locks, noop, 1) {
					seedWins++
				}
			}
		})
		if err := sim.Run(1_000_000_000); err != nil {
			return 0, 0, err
		}
		wins += seedWins
		total += seedTotal
	}
	return float64(wins) / float64(total), total, nil
}

// noop is the empty critical section.
var noop = idem.Body(func(r *idem.Run) {})
