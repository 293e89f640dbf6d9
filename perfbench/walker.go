package main

import (
	"time"

	"realsum/internal/corpus"
)

// memWalker replays a corpus materialized in memory, so passes over it
// time the engine without regenerating files.
type memWalker struct {
	files [][]byte
	paths []string
	bytes int64
	gen   time.Duration // generating the files once
}

// materialize generates every file of w once, timing the generation.
func materialize(w corpus.Walker) (*memWalker, error) {
	m := &memWalker{}
	start := time.Now()
	err := w.Walk(func(path string, data []byte) error {
		m.files = append(m.files, append([]byte(nil), data...))
		m.paths = append(m.paths, path)
		m.bytes += int64(len(data))
		return nil
	})
	m.gen = time.Since(start)
	return m, err
}

// Walk implements corpus.Walker.
func (m *memWalker) Walk(fn func(path string, data []byte) error) error {
	for i, f := range m.files {
		if err := fn(m.paths[i], f); err != nil {
			return err
		}
	}
	return nil
}

// timingWalker wraps a corpus.Walker and splits the walk's wall time in
// two: busy is time the source spent producing the next file (outside
// the callback), blocked is time the consumer's callback held the walk —
// for sim.Run and sim.Collect, the time spent handing the file to a
// worker, which blocks while every worker is busy and the queue is full.
// One goroutine calls Walk at a time, as every engine pass does.
type timingWalker struct {
	inner   corpus.Walker
	busy    time.Duration
	blocked time.Duration
	files   int
	bytes   int64
}

// Walk implements corpus.Walker.
func (t *timingWalker) Walk(fn func(path string, data []byte) error) error {
	last := time.Now()
	err := t.inner.Walk(func(path string, data []byte) error {
		t0 := time.Now()
		t.busy += t0.Sub(last)
		t.files++
		t.bytes += int64(len(data))
		err := fn(path, data)
		last = time.Now()
		t.blocked += last.Sub(t0)
		return err
	})
	t.busy += time.Since(last)
	return err
}
