package corpus

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"
)

// withGOMAXPROCS runs fn at GOMAXPROCS n, restoring the setting after.
func withGOMAXPROCS(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// TestWalkMatchesSerialGenerate checks the prefetching walk against
// serial generation: the same paths, in spec order, with the same
// bytes, at GOMAXPROCS 1, 2 and 8 (one, two and maxGenerators
// generator goroutines), for a whole corpus, one file and no files.
func TestWalkMatchesSerialGenerate(t *testing.T) {
	full := StanfordU1().Scale(0.1).Build()
	for _, fs := range []*FS{full, {Name: "one", Specs: full.Specs[:1]}, {Name: "empty"}} {
		for _, procs := range []int{1, 2, 8} {
			withGOMAXPROCS(procs, func() {
				i := 0
				err := fs.Walk(func(path string, data []byte) error {
					s := fs.Specs[i]
					if path != s.Path {
						t.Fatalf("%s, GOMAXPROCS %d: file %d is %s, want %s", fs.Name, procs, i, path, s.Path)
					}
					if !bytes.Equal(data, s.Generate()) {
						t.Fatalf("%s, GOMAXPROCS %d: %s differs from serial Generate", fs.Name, procs, path)
					}
					i++
					return nil
				})
				if err != nil {
					t.Fatalf("%s, GOMAXPROCS %d: %v", fs.Name, procs, err)
				}
				if i != len(fs.Specs) {
					t.Fatalf("%s, GOMAXPROCS %d: walked %d files, want %d", fs.Name, procs, i, len(fs.Specs))
				}
			})
		}
	}
}

// TestWalkErrorStopsGenerators checks that an error from fn ends the
// walk at that file, is returned unchanged, and leaves no generator
// goroutine running once Walk has returned.
func TestWalkErrorStopsGenerators(t *testing.T) {
	fs := StanfordU1().Scale(0.5).Build()
	stop := errors.New("stop")
	for _, procs := range []int{2, 8} {
		for _, at := range []int{0, 1, 5, len(fs.Specs) - 1} {
			withGOMAXPROCS(procs, func() {
				before := runtime.NumGoroutine()
				n := 0
				err := fs.Walk(func(string, []byte) error {
					if n == at {
						return stop
					}
					n++
					return nil
				})
				if err != stop {
					t.Fatalf("GOMAXPROCS %d, stop at %d: Walk returned %v, want the callback's error", procs, at, err)
				}
				if n != at {
					t.Fatalf("GOMAXPROCS %d: fn ran past the error: %d files, want %d", procs, n, at)
				}
				// Walk waits for its generators, so the count is back at
				// once; the deadline only absorbs unrelated runtime
				// goroutines winding down.
				deadline := time.Now().Add(2 * time.Second)
				for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
					runtime.Gosched()
				}
				if g := runtime.NumGoroutine(); g > before {
					t.Fatalf("GOMAXPROCS %d, stop at %d: %d goroutines after Walk, %d before", procs, at, g, before)
				}
			})
		}
	}
}
