package netsim

import (
	"context"
	"testing"

	"realsum/internal/corpus"
)

// TestShardFlushMatchesRun is the incremental-path oracle at the engine
// level: feeding files through Shards with batched flushes at arbitrary
// points merges to a tally byte-identical to the one-shot Run.
func TestShardFlushMatchesRun(t *testing.T) {
	fs := corpus.StanfordU1().Scale(0.02).Build()
	cfg := Config{Trials: 2, Seed: 99}
	want, err := Run(context.Background(), fs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Two shards fed round-robin, flushed mid-stream after every file on
	// shard B and only at the end on shard A.
	agg := NewTally(cfg)
	a, b := NewShard(cfg), NewShard(cfg)
	idx := 0
	err = fs.Walk(func(path string, data []byte) error {
		if idx%2 == 0 {
			a.File(idx, data)
		} else {
			b.File(idx, data)
			if err := b.Flush(agg); err != nil {
				t.Fatal(err)
			}
		}
		idx++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(agg); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(agg); err != nil { // empty after its last flush; must be a no-op
		t.Fatal(err)
	}

	if got, want := agg.Report(), want.Report(); got != want {
		t.Errorf("shard-flushed tally differs from batch Run:\n--- shard\n%s\n--- batch\n%s", got, want)
	}
}

// TestShardZeroAllocServicePath guards the cksumd per-trial hot path:
// after a warm-up file has sized the shard's reusable buffers, repeated
// trials and batched flushes through the exported Shard surface must
// not allocate (ModeTCP), open-loop and with the retransmission loop —
// whose primary arrivals reuse the scored sums — enabled.
func TestShardZeroAllocServicePath(t *testing.T) {
	for _, retrans := range []bool{false, true} {
		cfg := Config{Trials: 2, Seed: 9, Retrans: retrans}
		sh := NewShard(cfg)
		agg := NewTally(cfg)
		data := varied(8192)
		sh.File(0, data) // warm-up: sizes every reusable buffer
		for c := range sh.w.chans {
			c := c
			allocs := testing.AllocsPerRun(20, func() {
				sh.w.trial(0, c, 0)
			})
			if allocs != 0 {
				t.Errorf("retrans=%v channel %s: %v allocs per trial through the service shard, want 0",
					retrans, sh.w.tally.Channels[c].Name, allocs)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			sh.Flush(agg)
		})
		if allocs != 0 {
			t.Errorf("retrans=%v: %v allocs per batched flush, want 0", retrans, allocs)
		}
	}
}

func TestTallyResetAndClone(t *testing.T) {
	fs := corpus.StanfordU1().Scale(0.01).Build()
	cfg := Config{Trials: 1, Seed: 3}
	tally, err := Run(context.Background(), fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clone := tally.Clone()
	if clone.Report() != tally.Report() {
		t.Error("Clone's report differs from the original")
	}

	tally.Reset()
	empty := NewTally(cfg)
	if tally.Report() != empty.Report() {
		t.Errorf("Reset tally differs from a fresh NewTally:\n%s", tally.Report())
	}
	// The clone must be a deep copy: resetting the original cannot have
	// touched it.
	if clone.Report() == empty.Report() {
		t.Error("Clone shares counters with the original (Reset zeroed it)")
	}
	// A reset tally is reusable as a merge target of the same shape.
	if err := tally.Merge(clone); err != nil {
		t.Fatal(err)
	}
	if tally.Report() != clone.Report() {
		t.Error("merging into a Reset tally does not reproduce the source")
	}
}

func TestStreamSeed(t *testing.T) {
	if got := StreamSeed(42, 0); got != 42 {
		t.Errorf("StreamSeed(42, 0) = %d, want the base seed itself", got)
	}
	seen := map[uint64]int{42: 0}
	for r := 1; r < 64; r++ {
		s := StreamSeed(42, r)
		if prev, dup := seen[s]; dup {
			t.Fatalf("replica %d collides with replica %d", r, prev)
		}
		seen[s] = r
	}
	if StreamSeed(1, 1) == StreamSeed(2, 1) {
		t.Error("base seed does not alter replica seeds")
	}
}
