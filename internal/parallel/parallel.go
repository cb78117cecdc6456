package parallel

// SeedFor returns the per-trial RNG seed used throughout the experiment
// harness: a SplitMix64 step over (base, index), so neighbouring trials get
// decorrelated streams and the mapping is stable across releases.
func SeedFor(base int64, index int) int64 {
	z := uint64(base) + 0x9E3779B97F4A7C15*uint64(index+1)
	return int64(mix64(z))
}

// mix64 is the SplitMix64 finalizer: a bijective avalanche over 64 bits.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
