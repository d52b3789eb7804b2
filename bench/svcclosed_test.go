package main

import "testing"

// TestSvcEpochRotation checks the closed loop's balanced design: every
// epoch sends each request type once, and over one round of epochs each
// type is sent once at every position.
func TestSvcEpochRotation(t *testing.T) {
	perm := svcOrder(7)
	n := len(perm)
	seen := map[[2]int]bool{}
	for e := 0; e < n; e++ {
		types := map[int]bool{}
		for pos, r := range svcEpoch(perm, e) {
			ty := -1
			for i, c := range svcCombos() {
				if c.K == r.K && c.Algorithm == r.Algorithm && c.Policy == r.Policy {
					ty = i
				}
			}
			if ty < 0 || types[ty] {
				t.Fatalf("epoch %d position %d: request %+v is not a new type", e, pos, r)
			}
			types[ty] = true
			seen[[2]int{ty, pos}] = true
		}
	}
	if len(seen) != n*n {
		t.Errorf("%d epochs covered %d (type, position) pairs, want %d", n, len(seen), n*n)
	}
}
