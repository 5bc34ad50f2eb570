//go:build race

package source

const raceEnabled = true
