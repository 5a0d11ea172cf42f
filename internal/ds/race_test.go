//go:build race

package ds

func init() { raceEnabled = true }
