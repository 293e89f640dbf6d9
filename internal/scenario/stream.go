package scenario

import (
	"context"
	"fmt"
	"sync"
	"time"

	"realsum/internal/corpus"
	"realsum/internal/netsim"
	"realsum/internal/sim"
)

// State is a stream's lifecycle phase.
type State int32

const (
	// StatePending — registered, not yet running.
	StatePending State = iota
	// StateRunning — feeding files through the engine.
	StateRunning
	// StateDone — budget completed and every tally flushed.
	StateDone
	// StateStopped — shut down before the budget completed; tallies for
	// every file fully scored were flushed (drain-on-shutdown).
	StateStopped
	// StateFailed — the corpus walk or wire protocol errored.
	StateFailed
)

func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateStopped:
		return "stopped"
	case StateFailed:
		return "failed"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Stream is one continuously-running verification pipeline: a scenario
// replica bound to its derived seed, a pool of engine shards, and the
// aggregate tally the shards flush batches into.  Everything the
// metrics endpoint reads — state, counters, the tally snapshot — is
// safe to read while the stream runs.
type Stream struct {
	// ID is the server-assigned stream index (stable, metrics label).
	ID int
	// Scenario is the validated profile this stream runs.
	Scenario Scenario
	// Replica is this stream's index among the scenario's replicas.
	Replica int
	// Seed is netsim.StreamSeed(Scenario.Seed, Replica): replica 0 runs
	// the scenario's own seed and is byte-identical to the batch run.
	Seed uint64

	cfg        netsim.Config
	walker     corpus.Walker // nil for wire streams: the conn supplies files
	flushEvery int

	progress sim.Progress

	mu     sync.Mutex
	state  State
	err    error
	agg    *netsim.Tally
	passes uint64
}

// newStream builds one replica.  cfg and walker must already carry the
// replica seed (the Server derives them from the scenario).
func newStream(id int, sc Scenario, replica int, cfg netsim.Config, walker corpus.Walker, flushEvery int) *Stream {
	return &Stream{
		ID:         id,
		Scenario:   sc,
		Replica:    replica,
		Seed:       cfg.Seed,
		cfg:        cfg,
		walker:     walker,
		flushEvery: flushEvery,
		agg:        netsim.NewTally(cfg),
	}
}

// State returns the stream's lifecycle phase.
func (st *Stream) State() State {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.state
}

// Err returns the failure that moved the stream to StateFailed, if any.
func (st *Stream) Err() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

// Files and Bytes report live feed counters; Passes the completed
// corpus passes.
func (st *Stream) Files() uint64 { return st.progress.Files() }

// Bytes reports the corpus bytes fed so far.
func (st *Stream) Bytes() uint64 { return st.progress.Bytes() }

// Passes reports completed corpus passes.
func (st *Stream) Passes() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.passes
}

// Tally snapshots the aggregate — a deep copy, safe to render while the
// stream keeps flushing batches.  Mid-run it reflects only complete
// flushed batches; once the stream is done or stopped it is the final
// merged tally.
func (st *Stream) Tally() *netsim.Tally {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.agg.Clone()
}

func (st *Stream) setState(s State, err error) {
	st.mu.Lock()
	st.state = s
	if err != nil {
		st.err = err
	}
	st.mu.Unlock()
}

// Feed-loop sentinels: both stop cleanly (queued files still drain and
// flush); they differ only in the final state.  errDeadline means the
// Duration budget completed (StateDone), errShutdown that the service
// is cancelling the stream early (StateStopped).
var (
	errDeadline = fmt.Errorf("scenario: duration budget elapsed")
	errShutdown = fmt.Errorf("scenario: shutdown")
)

// run executes the stream until its budget completes or ctx is
// cancelled.  Cancellation is graceful by construction: the feed loop
// stops submitting, the pool drains every queued file, and the final
// flush folds every shard into the aggregate — no tally is lost.
// walker may override the stream's own (the TCP wire path).
func (st *Stream) run(ctx context.Context, walker corpus.Walker) error {
	if walker == nil {
		walker = st.walker
	}
	if walker == nil {
		err := fmt.Errorf("scenario: stream %d has no corpus source", st.ID)
		st.setState(StateFailed, err)
		return err
	}
	st.setState(StateRunning, nil)

	pool := sim.NewPool(sim.PoolOptions{
		Workers:    st.cfg.Workers,
		FlushEvery: st.flushEvery,
		Progress:   &st.progress,
	},
		func() *netsim.Shard { return netsim.NewShard(st.cfg) },
		func(sh *netsim.Shard, idx int, _ string, data []byte) { sh.File(idx, data) },
		func(sh *netsim.Shard) {
			st.mu.Lock()
			err := sh.Flush(st.agg)
			st.mu.Unlock()
			if err != nil {
				// Shard and aggregate are both built from st.cfg, so a
				// shape mismatch here is a program bug, not an input error.
				panic(err)
			}
		},
	)

	var deadline time.Time
	if d := st.Scenario.duration(); d > 0 {
		deadline = time.Now().Add(d)
	}
	budget := st.Scenario.passes()

	idx := 0 // runs across passes: pass p is the corpus appended again
	var walkErr error
	completed := true
feed:
	for pass := 0; budget == 0 || pass < budget; pass++ {
		if ctx.Err() != nil {
			completed = false
			break
		}
		walkErr = walker.Walk(func(path string, data []byte) error {
			if ctx.Err() != nil {
				return errShutdown
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				return errDeadline
			}
			if err := pool.Submit(ctx, idx, path, data); err != nil {
				return errShutdown
			}
			idx++
			return nil
		})
		switch walkErr {
		case nil:
			st.mu.Lock()
			st.passes++
			st.mu.Unlock()
			if !deadline.IsZero() && time.Now().After(deadline) {
				break feed
			}
		case errDeadline:
			walkErr = nil
			break feed
		case errShutdown:
			walkErr = nil
			completed = false
			break feed
		default:
			completed = false
			break feed
		}
	}
	pool.Drain()

	switch {
	case walkErr != nil:
		st.setState(StateFailed, walkErr)
		return walkErr
	case completed:
		st.setState(StateDone, nil)
	default:
		st.setState(StateStopped, nil)
	}
	return nil
}

// Report renders the stream's current tally snapshot.
func (st *Stream) Report() string { return st.Tally().Report() }
