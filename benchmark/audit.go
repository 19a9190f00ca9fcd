package main

import "fmt"

// The audits are pure functions of what the generators tallied and what
// the structures hold once every generator has returned, so each can be
// tested with a deliberately broken input. A violation makes the run
// incorrect and the process exit non-zero.

// auditPool checks WorkPool conservation: everything enqueued was
// dequeued exactly once, and nothing is left behind.
func auditPool(enqs, deqs, enqSum, deqSum uint64, finalLen int) []string {
	var out []string
	if enqs != deqs || enqSum != deqSum {
		out = append(out, fmt.Sprintf("pool conservation: enqueued %d (sum %d), dequeued %d (sum %d)",
			enqs, enqSum, deqs, deqSum))
	}
	if finalLen != 0 {
		out = append(out, fmt.Sprintf("pool not empty at end: %d left", finalLen))
	}
	return out
}

// auditSum checks a conserved or counted total: the Map counters must
// sum to the number of Update calls, transfer balances to what prefill
// put in.
func auditSum(what string, got, want uint64) []string {
	if got != want {
		return []string{fmt.Sprintf("%s: sum %d, want %d", what, got, want)}
	}
	return nil
}

// auditLog checks one cursor: it delivered each producer's entries
// 1..n exactly once. Entries of one producer spread over the log's
// shards, and a cursor interleaves shards, so the check is on the set,
// not on arrival order.
func auditLog(cursor int, seen, appended []tally) []string {
	var out []string
	for p := range appended {
		if seen[p] != appended[p] {
			out = append(out, fmt.Sprintf("log cursor %d, producer %d: delivered %+v, appended %+v",
				cursor, p, seen[p], appended[p]))
		}
	}
	return out
}

// auditTxn checks txn-stall: balances are conserved and no Atomic call
// returned an error.
func auditTxn(sum, want, errs uint64) []string {
	out := auditSum("txn balances", sum, want)
	if errs != 0 {
		out = append(out, fmt.Sprintf("txn: %d Atomic calls returned an error", errs))
	}
	return out
}
