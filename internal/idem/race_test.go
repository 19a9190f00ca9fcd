//go:build race

package idem

func init() { raceEnabled = true }
