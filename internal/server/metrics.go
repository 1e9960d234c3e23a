package server

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// rateWindow computes words/sec between consecutive /metrics scrapes.
type rateWindow struct {
	mu        sync.Mutex
	lastTime  time.Time
	lastWords uint64
}

// sample returns the word rate since the previous call (0 on the first).
func (r *rateWindow) sample(now time.Time, words uint64) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var rate float64
	if !r.lastTime.IsZero() {
		if dt := now.Sub(r.lastTime).Seconds(); dt > 0 {
			rate = float64(words-r.lastWords) / dt
		}
	}
	r.lastTime = now
	r.lastWords = words
	return rate
}

// handleMetrics serves Prometheus text exposition format (0.0.4). Every
// value is an atomic or lock-scoped snapshot: scraping never touches a
// session's simulator, so it is safe while sessions stream.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	gauge := func(name, help string, v any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	drain := 0
	if s.draining.Load() {
		drain = 1
	}
	gauge("nanobusd_up", "1 while the service is serving.", 1)
	gauge("nanobusd_draining", "1 after Drain(): new sessions are refused.", drain)
	gauge("nanobusd_uptime_seconds", "Seconds since the server was built.",
		fmt.Sprintf("%.3f", time.Since(s.start).Seconds()))
	gauge("nanobusd_sessions_active", "Open sessions.", s.active.Load())
	counter("nanobusd_sessions_created_total", "Sessions ever created.", s.createdTotal.Load())
	counter("nanobusd_sessions_recycled_total", "Sessions served by a pooled simulator.", s.recycledTotal.Load())
	counter("nanobusd_sessions_closed_total", "Sessions closed by DELETE.", s.closedTotal.Load())
	gauge("nanobusd_pool_idle_simulators", "Simulators shelved in the session pool for reuse.", s.pool.idle())

	words := s.wordsTotal.Load()
	counter("nanobusd_words_total", "Trace words simulated.", words)
	counter("nanobusd_idle_cycles_total", "Idle cycles simulated.", s.idleTotal.Load())
	counter("nanobusd_samples_total", "Sampling intervals closed.", s.samplesTotal.Load())
	gauge("nanobusd_words_per_second", "Word throughput since the previous scrape.",
		fmt.Sprintf("%.3f", s.rate.sample(time.Now(), words)))

	counter("nanobusd_checkpoints_total", "Checkpoints taken (manual and automatic).", s.checkpointsTotal.Load())
	counter("nanobusd_checkpoint_failures_total", "Automatic checkpoints that failed to persist.", s.checkpointFailedTotal.Load())
	counter("nanobusd_restores_total", "Session restores (in-place and resurrection).", s.restoresTotal.Load())
	counter("nanobusd_sessions_resurrected_total", "Sessions rebuilt from stored checkpoints after loss.", s.resurrectedTotal.Load())
	counter("nanobusd_seq_duplicates_total", "Sequenced batches acknowledged idempotently without re-stepping.", s.seqDuplicatesTotal.Load())

	s.nbwpMu.Lock()
	nbwpActive := len(s.nbwpConns)
	s.nbwpMu.Unlock()
	gauge("nanobusd_nbwp_connections_active", "Open NBWP connections.", nbwpActive)
	counter("nanobusd_nbwp_connections_total", "NBWP connections ever accepted.", s.nbwpConnsTotal.Load())
	counter("nanobusd_nbwp_frames_in_total", "NBWP frames received.", s.nbwpFramesIn.Load())
	counter("nanobusd_nbwp_frames_out_total", "NBWP frames sent (acks, samples, errors, drains).", s.nbwpFramesOut.Load())
	counter("nanobusd_nbwp_step_frames_total", "NBWP STEP/STEP_IDLE frames applied.", s.nbwpStepFrames.Load())
	counter("nanobusd_nbwp_errors_total", "NBWP frames answered with an ERROR frame.", s.nbwpErrorsTotal.Load())

	hits, misses := s.memoHits.Load(), s.memoMisses.Load()
	counter("nanobusd_memo_hits_total", "Transition-memo hits (harvested per request).", hits)
	counter("nanobusd_memo_misses_total", "Transition-memo misses (harvested per request).", misses)
	hitRate := 0.0
	if n := hits + misses; n > 0 {
		hitRate = float64(hits) / float64(n)
	}
	gauge("nanobusd_memo_hit_rate", "Hits over lookups across all harvested sessions.",
		fmt.Sprintf("%.6f", hitRate))

	fmt.Fprintf(&b, "# HELP nanobusd_shard_queue_depth Session operations (HTTP requests, NBWP frames) waiting for or holding a session.\n")
	fmt.Fprintf(&b, "# TYPE nanobusd_shard_queue_depth gauge\n")
	for i, sh := range s.shards {
		fmt.Fprintf(&b, "nanobusd_shard_queue_depth{shard=\"%d\"} %d\n", i, sh.queue.Load())
	}
	fmt.Fprintf(&b, "# HELP nanobusd_shard_sessions Open sessions per shard.\n")
	fmt.Fprintf(&b, "# TYPE nanobusd_shard_sessions gauge\n")
	for i, sh := range s.shards {
		sh.mu.Lock()
		n := len(sh.sessions)
		sh.mu.Unlock()
		fmt.Fprintf(&b, "nanobusd_shard_sessions{shard=\"%d\"} %d\n", i, n)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := w.Write([]byte(b.String())); err != nil {
		// Scraper went away; nothing to do.
		return
	}
}
