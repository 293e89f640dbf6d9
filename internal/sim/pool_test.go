package sim

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countShard is the simplest commutative shard: per-shard sums merged
// under the flush mutex.
type countShard struct {
	files int
	bytes int
}

func TestPoolProcessesEverySubmission(t *testing.T) {
	var mu sync.Mutex
	total := countShard{}
	pool := NewPool(PoolOptions{Workers: 4},
		func() *countShard { return &countShard{} },
		func(s *countShard, idx int, _ string, data []byte) {
			s.files++
			s.bytes += len(data)
		},
		func(s *countShard) {
			mu.Lock()
			total.files += s.files
			total.bytes += s.bytes
			s.files, s.bytes = 0, 0
			mu.Unlock()
		},
	)
	const n = 100
	for i := 0; i < n; i++ {
		if err := pool.Submit(context.Background(), i, "", make([]byte, i)); err != nil {
			t.Fatalf("Submit(%d): %v", i, err)
		}
	}
	pool.Drain()
	if total.files != n {
		t.Errorf("flushed %d files, want %d", total.files, n)
	}
	if want := n * (n - 1) / 2; total.bytes != want {
		t.Errorf("flushed %d bytes, want %d", total.bytes, want)
	}
}

// TestPoolBatchedFlush verifies FlushEvery publishes partial batches
// while the pool is still accepting work: with one worker and
// FlushEvery=2, the aggregate is non-empty before Drain.
func TestPoolBatchedFlush(t *testing.T) {
	var flushed atomic.Int64
	pool := NewPool(PoolOptions{Workers: 1, FlushEvery: 2},
		func() *countShard { return &countShard{} },
		func(s *countShard, idx int, _ string, data []byte) { s.files++ },
		func(s *countShard) {
			flushed.Add(int64(s.files))
			s.files = 0
		},
	)
	for i := 0; i < 10; i++ {
		if err := pool.Submit(context.Background(), i, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for flushed.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if flushed.Load() < 2 {
		t.Error("no mid-run batch flush observed before Drain")
	}
	pool.Drain()
	if got := flushed.Load(); got != 10 {
		t.Errorf("flushed %d files total, want 10", got)
	}
}

// TestPoolBackpressure pins the bounded-queue contract: with one
// blocked worker (so a one-slot queue), the third Submit cannot
// complete until the worker frees a slot.
func TestPoolBackpressure(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 16)
	pool := NewPool(PoolOptions{Workers: 1},
		func() *countShard { return &countShard{} },
		func(s *countShard, idx int, _ string, data []byte) {
			started <- struct{}{}
			<-gate
		},
		nil,
	)
	ctx := context.Background()
	// First job occupies the worker, second fills the queue.
	if err := pool.Submit(ctx, 0, "", nil); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := pool.Submit(ctx, 1, "", nil); err != nil {
		t.Fatal(err)
	}
	third := make(chan error, 1)
	go func() { third <- pool.Submit(ctx, 2, "", nil) }()
	select {
	case err := <-third:
		t.Fatalf("third Submit completed (%v) despite a full queue", err)
	case <-time.After(50 * time.Millisecond):
		// Blocked, as the backpressure contract requires.
	}
	close(gate)
	select {
	case err := <-third:
		if err != nil {
			t.Fatalf("third Submit after release: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("third Submit still blocked after the worker drained")
	}
	pool.Drain()
}

// TestPoolSubmitCancel verifies a cancelled context unblocks a
// backpressured Submit with ctx.Err(), and that Drain still processes
// everything already queued.
func TestPoolSubmitCancel(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 16)
	var done atomic.Int64
	pool := NewPool(PoolOptions{Workers: 1},
		func() *countShard { return &countShard{} },
		func(s *countShard, idx int, _ string, data []byte) {
			started <- struct{}{}
			<-gate
			done.Add(1)
		},
		nil,
	)
	ctx, cancel := context.WithCancel(context.Background())
	if err := pool.Submit(ctx, 0, "", nil); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := pool.Submit(ctx, 1, "", nil); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- pool.Submit(ctx, 2, "", nil) }()
	cancel()
	if err := <-blocked; err != context.Canceled {
		t.Fatalf("cancelled Submit returned %v, want context.Canceled", err)
	}
	close(gate)
	pool.Drain()
	if got := done.Load(); got != 2 {
		t.Errorf("drain processed %d queued files, want 2 (cancel must not drop queued work)", got)
	}
}
