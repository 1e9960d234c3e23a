package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"nanobus/internal/core"
	"nanobus/internal/energy"
)

// poolKey identifies a simulator configuration. Two sessions with equal
// keys are interchangeable after Simulator.Reset(), which is what makes
// pooling bit-exact: every field that reaches core.Config is part of the
// key (nodes and encoders are identified by name — both registries return
// fixed configurations per name).
type poolKey struct {
	node     string
	encoding string
	lengthM  float64
	interval uint64
	depth    int
	memoLog2 int
	track    bool
	drop     bool
}

// pool recycles idle simulators by configuration. A Get hit skips the
// capacitance model build and thermal eigendecomposition.
type pool struct {
	mu     sync.Mutex
	free   map[poolKey][]*core.Simulator
	maxPer int
}

func newPool(maxPer int) *pool {
	return &pool{free: make(map[poolKey][]*core.Simulator), maxPer: maxPer}
}

// get pops a recycled simulator for the key, or reports a miss.
func (p *pool) get(k poolKey) (*core.Simulator, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sims := p.free[k]
	if len(sims) == 0 {
		return nil, false
	}
	sim := sims[len(sims)-1]
	p.free[k] = sims[:len(sims)-1]
	return sim, true
}

// put resets sim and shelves it for reuse; full shelves and poisoned
// simulators are dropped. Adaptive simulators are never pooled: the key
// does not carry the controller tuning, so two adaptive sessions with
// equal keys would not be interchangeable.
func (p *pool) put(k poolKey, sim *core.Simulator) {
	if sim.Err() != nil || sim.Adaptive() {
		return
	}
	sim.SetOnSample(nil)
	sim.Reset()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free[k]) >= p.maxPer {
		return
	}
	p.free[k] = append(p.free[k], sim)
}

// session is one client-visible simulation stream. The simulator is
// guarded by sem (capacity 1): every session operation serializes on it
// (see withSession), so the core never sees concurrent access. words/idle are atomics
// so status and metrics reads never touch the simulator.
type session struct {
	id   string
	key  poolKey
	info SessionInfo // static fields; live counters come from the atomics
	// Exactly one of sim and msim is non-nil: sim is a scalar session's
	// simulator, msim a multi-bus session's (buses > 1). Handlers go
	// through the dispatch helpers below so the branch lives in one place;
	// only the pool (scalar-only) and the interleaved step layout look
	// behind them.
	sim   *core.Simulator
	msim  *core.MultiSim
	buses int // 1 for scalar sessions
	sem   chan struct{}
	words atomic.Uint64
	idle  atomic.Uint64
	// closed is set (under sem) by close and migration; operations that
	// were already waiting on sem re-check it after acquiring.
	closed bool
	// lastMemo is the memo snapshot at the last harvest (guarded by sem).
	lastMemo energy.MemoStats
	// encBuf is the reused ?stream=samples NDJSON line buffer (guarded
	// by sem): one buffer per session instead of an allocation per
	// streamed sample.
	encBuf []byte
	// reqJSON is the normalized CreateSessionRequest (deterministic
	// field order), embedded in checkpoint envelopes so a fresh process
	// can rebuild the simulator from the envelope alone.
	reqJSON []byte
	// lastSeq is the last acknowledged ?seq= batch (written under sem;
	// atomic so session-info reads skip the sem).
	lastSeq atomic.Uint64
	// lastSum caches the lastSeq batch's summary for duplicate acks
	// (guarded by sem).
	lastSum StepSummary
	// dirtySeq marks a sequenced batch that began mutating the simulator
	// but never acknowledged: the state is ahead of lastSeq, so seq
	// accounting is unsound until a restore rewinds it (guarded by sem,
	// deliberately also across a mid-batch handler panic — the deferred
	// release runs but the flag stays set).
	dirtySeq bool
	// ckptCycles is the simulator cycle count at the last checkpoint,
	// the auto-checkpoint pacing reference (guarded by sem).
	ckptCycles uint64
}

// tryAcquire takes the session's simulator if it is free.
func (s *session) tryAcquire() bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// acquire waits for the session's simulator, failing when ctx ends first.
func (s *session) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *session) release() { <-s.sem }

// liveInfo returns the session's info document with its live counters.
func (s *session) liveInfo() SessionInfo {
	info := s.info
	info.Words = s.words.Load()
	info.IdleCycles = s.idle.Load()
	info.LastSeq = s.lastSeq.Load()
	return info
}

// --- Simulator dispatch ------------------------------------------------------

// stepBatch feeds one word batch to the session's simulator and returns
// the number of words consumed. Multi-bus batches are interleaved
// cycle-major, so K words advance one lockstep cycle.
func (s *session) stepBatch(ctx context.Context, words []uint32) (uint64, error) {
	if s.msim != nil {
		rows, err := s.msim.StepBatch(ctx, words)
		return uint64(rows) * uint64(s.buses), err
	}
	n, err := s.sim.StepBatch(ctx, words)
	return uint64(n), err
}

// stepIdleBatch advances n idle cycles (on every bus, for multi).
func (s *session) stepIdleBatch(ctx context.Context, n uint64) (uint64, error) {
	if s.msim != nil {
		return s.msim.StepIdleBatch(ctx, n)
	}
	return s.sim.StepIdleBatch(ctx, n)
}

// setOnSample installs fn as the per-interval sample callback; scalar
// sessions always report bus 0.
func (s *session) setOnSample(fn func(bus int, cs core.Sample)) {
	if s.msim != nil {
		s.msim.SetOnBusSample(fn)
		return
	}
	if fn == nil {
		s.sim.SetOnSample(nil)
		return
	}
	s.sim.SetOnSample(func(cs core.Sample) { fn(0, cs) })
}

// finish closes any partial sampling interval.
func (s *session) finish() error {
	if s.msim != nil {
		return s.msim.Finish()
	}
	return s.sim.Finish()
}

// simErr returns the simulator's sticky error, or nil.
func (s *session) simErr() error {
	if s.msim != nil {
		return s.msim.Err()
	}
	return s.sim.Err()
}

// snapshot serializes the simulator: NBCP v1 for a static scalar (or
// K = 1) session, v2 for a K > 1 multi-bus one, v3 for an adaptive one.
func (s *session) snapshot() ([]byte, error) {
	if s.msim != nil {
		return s.msim.Snapshot()
	}
	return s.sim.Snapshot()
}

// restoreBlob overwrites the simulator's state from a snapshot blob.
func (s *session) restoreBlob(data []byte) error {
	if s.msim != nil {
		return s.msim.Restore(data)
	}
	return s.sim.Restore(data)
}

// simCycles returns the simulated (lockstep) cycle count.
func (s *session) simCycles() uint64 {
	if s.msim != nil {
		return s.msim.Cycles()
	}
	return s.sim.Cycles()
}

// memoStats returns the transition-memo counters.
func (s *session) memoStats() energy.MemoStats {
	if s.msim != nil {
		return s.msim.MemoStats()
	}
	return s.sim.MemoStats()
}

// cycleCount converts the live word/idle counters into lockstep cycles:
// a multi-bus session consumes K words per cycle.
func (s *session) cycleCount() uint64 {
	return s.words.Load()/uint64(s.buses) + s.idle.Load()
}

// shard is one lock domain of the session table.
type shard struct {
	mu       sync.Mutex
	sessions map[string]*session
	// queue counts session operations waiting for or holding a session
	// of this shard, on either transport (the per-shard queue depth
	// metric).
	queue atomic.Int64
}

func (sh *shard) lookup(id string) (*session, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sess, ok := sh.sessions[id]
	return sess, ok
}

// newSessionID returns a fresh 16-hex-char id.
func newSessionID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("server: session id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// shardOf maps a session id onto a shard index.
func shardOf(id string, n int) int {
	h := fnv.New32a()
	//nanolint:ignore droppederr hash.Hash.Write is documented to never return an error
	_, _ = h.Write([]byte(id))
	return int(h.Sum32() % uint32(n))
}
