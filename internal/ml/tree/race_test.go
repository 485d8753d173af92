//go:build race

package tree

func init() { raceEnabled = true }
