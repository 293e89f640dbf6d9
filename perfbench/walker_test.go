package main

import (
	"testing"
	"time"
)

// sleepyWalker spends busy producing each file before handing it over.
type sleepyWalker struct {
	files int
	busy  time.Duration
}

func (s sleepyWalker) Walk(fn func(string, []byte) error) error {
	for i := 0; i < s.files; i++ {
		time.Sleep(s.busy)
		if err := fn("f", make([]byte, 10)); err != nil {
			return err
		}
	}
	return nil
}

func TestTimingWalkerSplitsBusyFromBlocked(t *testing.T) {
	const files = 4
	produce, consume := 20*time.Millisecond, 30*time.Millisecond
	tw := &timingWalker{inner: sleepyWalker{files: files, busy: produce}}
	if err := tw.Walk(func(string, []byte) error { time.Sleep(consume); return nil }); err != nil {
		t.Fatal(err)
	}
	if tw.files != files || tw.bytes != 10*files {
		t.Errorf("counted %d files / %d bytes, want %d / %d", tw.files, tw.bytes, files, 10*files)
	}
	// Sleeps never return early; the upper bounds allow a slow host.
	if tw.busy < files*produce || tw.busy > files*consume {
		t.Errorf("busy = %v, want between %v and %v", tw.busy, files*produce, files*consume)
	}
	if tw.blocked < files*consume || tw.blocked > 2*files*consume {
		t.Errorf("blocked = %v, want between %v and %v", tw.blocked, files*consume, 2*files*consume)
	}
}
