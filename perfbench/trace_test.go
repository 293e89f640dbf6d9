package main

import (
	"testing"
	"time"
)

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		// Two overlapping children cover [10, 60]: 50 units, counted once.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		// A child running past its parent is clipped to [90, 100].
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A grandchild counts against its parent only.
		{ID: 5, Parent: 2, Name: "a.inner", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 100 - 50 - 10, 2: 30 - 10, 3: 30, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time = %d, want %d", id, self[id], w)
		}
	}
}

func TestSelfTimeDisjointChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 60, End: 70},
		{ID: 3, Parent: 1, Start: 10, End: 20},
		{ID: 4, Parent: 1, Start: 15, End: 18}, // inside span 3's interval
	}
	if got := selfTimes(spans)[1]; got != 80 {
		t.Errorf("self time = %d, want 80", got)
	}
}
