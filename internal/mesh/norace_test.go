//go:build !race

package mesh

const raceEnabled = false
