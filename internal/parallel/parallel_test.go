package parallel

import "testing"

func TestSeedForProperties(t *testing.T) {
	seen := make(map[int64]bool)
	for i := 0; i < 10000; i++ {
		s := SeedFor(1, i)
		if seen[s] {
			t.Fatalf("seed collision at index %d", i)
		}
		seen[s] = true
	}
	if SeedFor(1, 0) == SeedFor(2, 0) {
		t.Error("different bases should give different seeds")
	}
	if SeedFor(1, 5) != SeedFor(1, 5) {
		t.Error("SeedFor must be pure")
	}
}
