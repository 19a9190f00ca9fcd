package sched

import (
	"fmt"
	"math"
	"testing"

	"wflocks/internal/env"
)

// BenchmarkSimStep measures the cost of one granted step: processes
// that do nothing but stall, under RoundRobin. One op is one granted
// step, so ns/op is the simulator's per-step overhead.
func BenchmarkSimStep(b *testing.B) {
	for _, procs := range []int{2, 8} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			s := New(RoundRobin{N: procs}, 1)
			// Share b.N steps out; the first grant is a step too.
			for i := 0; i < procs && i < b.N; i++ {
				n := b.N / procs
				if i < b.N%procs {
					n++
				}
				s.Spawn(func(e env.Env) { env.StallSteps(e, uint64(n-1)) })
			}
			b.ResetTimer()
			if err := s.Run(math.MaxUint64); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if got := s.TotalSteps(); got != uint64(b.N) {
				b.Fatalf("granted %d steps, want %d", got, b.N)
			}
		})
	}
}
