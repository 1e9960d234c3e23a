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

// pool recycles idle simulators by configuration, keyed by the
// session's normalized CreateSessionRequest (reqJSON): every field that
// reaches core.MultiConfig is in it (nodes and encoders by name, both
// registries return fixed configurations per name; bus count, bus
// coupling and the adaptive tuning included), so two sessions with equal
// keys are interchangeable after MultiSim.Reset, which is what makes
// pooling bit-exact. A Get hit skips the capacitance model build and the
// thermal eigendecomposition.
type pool struct {
	mu     sync.Mutex
	free   map[string][]*core.MultiSim
	maxPer int
}

func newPool(maxPer int) *pool {
	return &pool{free: make(map[string][]*core.MultiSim), maxPer: maxPer}
}

// get pops a recycled simulator for the key, or reports a miss.
func (p *pool) get(key string) (*core.MultiSim, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sims := p.free[key]
	if len(sims) == 0 {
		return nil, false
	}
	sim := sims[len(sims)-1]
	p.free[key] = sims[:len(sims)-1]
	return sim, true
}

// put resets the session's simulator and shelves it for reuse; full
// shelves and poisoned simulators are dropped.
func (p *pool) put(sess *session) {
	sim := sess.sim
	if sim.Err() != nil {
		return
	}
	sim.SetOnBusSample(nil)
	sim.Reset()
	key := string(sess.reqJSON)
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free[key]) >= p.maxPer {
		return
	}
	p.free[key] = append(p.free[key], sim)
}

// idle returns the number of shelved simulators.
func (p *pool) idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, sims := range p.free {
		n += len(sims)
	}
	return n
}

// session is one client-visible simulation stream. The simulator is
// guarded by sem (capacity 1): every session operation serializes on it
// (see withSession), so the core never sees concurrent access. words/idle are atomics
// so status and metrics reads never touch the simulator.
type session struct {
	id   string
	info SessionInfo // static fields; live counters come from the atomics
	// sim is the session's simulator: K >= 1 buses, adaptive or static.
	// Its bus count never changes, so Buses is read without sem.
	sim   *core.MultiSim
	sem   chan struct{}
	words atomic.Uint64
	idle  atomic.Uint64
	// closed is set (under sem) by close and migration; operations that
	// were already waiting on sem re-check it after acquiring.
	closed bool
	// lastMemo is the memo snapshot at the last harvest (guarded by sem).
	lastMemo energy.MemoStats
	// openMemo is the memo snapshot at OPEN: a pooled simulator's
	// counters run on across sessions, and Result reports only this
	// session's share.
	openMemo energy.MemoStats
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

// resultMemo returns the memo counters since the session opened.
func (s *session) resultMemo() MemoStats {
	st := s.sim.MemoStats()
	st.Hits -= s.openMemo.Hits
	st.Misses -= s.openMemo.Misses
	return MemoStats{Hits: st.Hits, Misses: st.Misses, HitRate: st.HitRate()}
}

// cycleCount converts the live word/idle counters into lockstep cycles:
// a multi-bus session consumes K words per cycle.
func (s *session) cycleCount() uint64 {
	return s.words.Load()/uint64(s.sim.Buses()) + s.idle.Load()
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
