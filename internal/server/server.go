package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nanobus/internal/cluster"
	"nanobus/internal/core"
	"nanobus/internal/encoding"
	"nanobus/internal/faultinject"
	"nanobus/internal/itrs"
	"nanobus/internal/nbwp"
)

// maxBuses caps the bus count of one multi-bus session; a full-chip
// thermal map beyond it should shard across sessions.
const maxBuses = 256

// Config tunes a Server. Zero values take the defaults noted per field.
type Config struct {
	// Shards is the number of session-table lock domains (default 8).
	Shards int
	// MaxSessions bounds concurrently open sessions; creates beyond it
	// get 503/server_full (default 1024).
	MaxSessions int
	// MaxBatchWords bounds one NDJSON words batch and sizes the binary
	// read chunk; larger NDJSON batches get 413 (default 65536).
	MaxBatchWords int
	// MaxPoolPerKey bounds recycled simulators kept per configuration
	// (default 32).
	MaxPoolPerKey int
	// RequestTimeout bounds every session operation (one HTTP request or
	// NBWP frame); zero means no server-side timeout (the client context
	// still applies).
	RequestTimeout time.Duration
	// AcquireTimeout bounds how long a request waits for a session that
	// is busy serving another request before giving up with
	// 409/session_busy (default 1s). The bound is server-side on purpose:
	// an HTTP/1 server cannot see a client disconnect until the request
	// body has been read, so waiting on the client context alone could
	// park the request forever.
	AcquireTimeout time.Duration
	// Store persists session checkpoints for PUT restore and resurrection
	// after a process restart; nil disables server-side persistence
	// (checkpoint?download=1 still works). In cluster mode this is the
	// replicated store (blob.NewReplicated) so checkpoints survive the
	// node that wrote them.
	Store BlobStore
	// PeerStore backs the /v1/cluster/blobs peer-replication endpoints.
	// It must be the node's *local* store — serving the replicated Store
	// there would cascade fan-outs between peers. Nil falls back to Store
	// (correct for single-store deployments).
	PeerStore BlobStore
	// AutoCheckpointCycles checkpoints each session to Store every N
	// simulated cycles as step requests complete; 0 disables automatic
	// checkpoints. Requires Store.
	AutoCheckpointCycles uint64
	// Cluster configures multi-node mode; the zero value (empty Self)
	// runs the server single-node with every cluster endpoint inert.
	Cluster ClusterConfig
}

// ClusterConfig names this node and its peers for multi-node mode.
type ClusterConfig struct {
	// Self is this node's member name; it must appear in Nodes.
	Self string
	// Nodes is the full static membership, including self.
	Nodes []cluster.Node
	// Replicas is the number of peer copies each checkpoint is fanned
	// out to (informational here; cmd/nanobusd builds the replicated
	// store). Reported by GET /v1/cluster.
	Replicas int
}

func (c ClusterConfig) enabled() bool { return c.Self != "" && len(c.Nodes) > 0 }

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.MaxBatchWords <= 0 {
		c.MaxBatchWords = 65536
	}
	if c.MaxPoolPerKey <= 0 {
		c.MaxPoolPerKey = 32
	}
	if c.AcquireTimeout <= 0 {
		c.AcquireTimeout = time.Second
	}
	return c
}

// Server owns the shard pool of sessions and serves the v1 API. Create
// with New, mount Handler, and call Drain before http.Server.Shutdown for
// a graceful stop.
type Server struct {
	cfg    Config
	shards []*shard
	pool   *pool
	frames *framePool
	scans  *scanBufPool
	mux    *http.ServeMux

	draining atomic.Bool
	active   atomic.Int64

	// Cluster state: the ownership ring (nil single-node) and the moved
	// table recording sessions this node migrated away, so late traffic
	// is redirected at the node that now serves them.
	ring    *cluster.Ring
	movedMu sync.Mutex
	moved   map[string]string
	peerHC  *http.Client

	migratedTotal atomic.Uint64
	notOwnerTotal atomic.Uint64
	movedTotal    atomic.Uint64

	createdTotal  atomic.Uint64
	recycledTotal atomic.Uint64
	closedTotal   atomic.Uint64
	wordsTotal    atomic.Uint64
	idleTotal     atomic.Uint64
	samplesTotal  atomic.Uint64
	memoHits      atomic.Uint64
	memoMisses    atomic.Uint64

	checkpointsTotal      atomic.Uint64
	checkpointFailedTotal atomic.Uint64
	restoresTotal         atomic.Uint64
	resurrectedTotal      atomic.Uint64
	seqDuplicatesTotal    atomic.Uint64

	// NBWP transport state: registered listeners (closed by Drain), live
	// connections (for the DRAIN broadcast and shutdown force-close), and
	// the wait group ShutdownNBWP blocks on.
	nbwpMu    sync.Mutex
	nbwpLis   []net.Listener
	nbwpConns map[*nbwpConn]struct{}
	nbwpWG    sync.WaitGroup

	nbwpConnsTotal  atomic.Uint64
	nbwpFramesIn    atomic.Uint64
	nbwpFramesOut   atomic.Uint64
	nbwpStepFrames  atomic.Uint64
	nbwpErrorsTotal atomic.Uint64

	start time.Time
	rate  rateWindow
}

// New builds a Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		shards:    make([]*shard, cfg.Shards),
		pool:      newPool(cfg.MaxPoolPerKey),
		frames:    newFramePool(cfg.MaxBatchWords),
		scans:     newScanBufPool(64 * 1024),
		mux:       http.NewServeMux(),
		nbwpConns: make(map[*nbwpConn]struct{}),
		start:     time.Now(),
	}
	for i := range s.shards {
		s.shards[i] = &shard{sessions: make(map[string]*session)}
	}
	if cfg.Cluster.enabled() {
		s.ring = cluster.NewRing(cluster.Names(cfg.Cluster.Nodes))
		s.moved = make(map[string]string)
		s.peerHC = &http.Client{Timeout: 30 * time.Second}
	}
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.bySession(s.handleSession))
	s.mux.HandleFunc("POST /v1/sessions/{id}/step", s.bySession(s.handleStep))
	s.mux.HandleFunc("GET /v1/sessions/{id}/result", s.bySession(s.handleResult))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.bySession(s.handleDelete))
	s.mux.HandleFunc("POST /v1/sessions/{id}/checkpoint", s.bySession(s.handleCheckpoint))
	s.mux.HandleFunc("PUT /v1/sessions/{id}/restore", s.handleRestore)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/cluster", s.handleClusterStatus)
	s.mux.HandleFunc("POST /v1/cluster/sessions/{id}/migrate", s.handleMigrate)
	s.mux.HandleFunc("PUT /v1/cluster/blobs/{id}", s.handleBlobPut)
	s.mux.HandleFunc("GET /v1/cluster/blobs/{id}", s.handleBlobGet)
	s.mux.HandleFunc("DELETE /v1/cluster/blobs/{id}", s.handleBlobDelete)
	s.mux.HandleFunc("GET /v1/cluster/blobs", s.handleBlobList)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops session creation (new creates get 503/draining) while
// existing sessions keep serving, stops accepting NBWP connections, and
// broadcasts DRAIN frames so pipelined clients wind down. Pair it with
// http.Server.Shutdown and ShutdownNBWP, which wait for in-flight work.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.drainNBWP()
}

// SessionsActive returns the number of open sessions.
func (s *Server) SessionsActive() int64 { return s.active.Load() }

// --- Response plumbing ------------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	//nanolint:ignore droppederr a failed response write means the client is gone; no recovery path
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg, Code: code})
}

// writeHTTPErr writes he as the response, owner hint included.
func writeHTTPErr(w http.ResponseWriter, he *httpErr) {
	writeJSON(w, he.status, ErrorResponse{Error: he.msg, Code: he.code, Owner: he.owner})
}

// replyJSON writes he when set, otherwise v as a 200 JSON document.
func replyJSON(w http.ResponseWriter, v any, he *httpErr) {
	if he != nil {
		writeHTTPErr(w, he)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// bySession resolves the {id} path value to a live session before h
// runs, answering the not-found (or cluster redirect) error itself.
func (s *Server) bySession(h func(http.ResponseWriter, *http.Request, *session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sess, he := s.lookup(r.PathValue("id"))
		if he != nil {
			writeHTTPErr(w, he)
			return
		}
		h(w, r, sess)
	}
}

// httpErr carries an error with its v1 status and code through the body
// consumers; owner rides along on cluster redirects.
type httpErr struct {
	status int
	code   string
	msg    string
	owner  *OwnerInfo
}

// herr builds an ownerless httpErr (the common case).
func herr(status int, code, msg string) *httpErr {
	return &httpErr{status: status, code: code, msg: msg}
}

func (e *httpErr) Error() string { return e.msg }

// asHTTPErr maps simulator/context errors onto wire errors.
func asHTTPErr(err error) *httpErr {
	var he *httpErr
	switch {
	case errors.As(err, &he):
		return he
	case errors.Is(err, core.ErrPoisoned):
		return herr(http.StatusInternalServerError, CodePoisoned, err.Error())
	case errors.Is(err, core.ErrCheckpointCorrupt):
		return herr(http.StatusUnprocessableEntity, CodeCheckpointCorrupt, err.Error())
	case errors.Is(err, core.ErrCheckpointMismatch):
		return herr(http.StatusConflict, CodeCheckpointMismatch, err.Error())
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return herr(http.StatusRequestTimeout, CodeCanceled, err.Error())
	default:
		return herr(http.StatusInternalServerError, CodeInternal, err.Error())
	}
}

// --- Session lookup ---------------------------------------------------------

func (s *Server) find(id string) (*session, bool) {
	return s.shards[shardOf(id, len(s.shards))].lookup(id)
}

// harvestMemo folds the session's memo counters since the last harvest
// into the server totals; the caller must hold the session.
func (s *Server) harvestMemo(sess *session) {
	st := sess.sim.MemoStats()
	s.memoHits.Add(st.Hits - sess.lastMemo.Hits)
	s.memoMisses.Add(st.Misses - sess.lastMemo.Misses)
	sess.lastMemo = st
}

// --- POST /v1/sessions ------------------------------------------------------

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	req, he := decodeCreateRequest(r.Body)
	var sess *session
	if he == nil {
		sess, he = s.openSession(req)
	}
	if he != nil {
		writeHTTPErr(w, he)
		return
	}
	writeJSON(w, http.StatusCreated, sess.info)
}

// registerFresh registers sess under a newly minted id, retrying the
// (vanishingly unlikely) id collision. In cluster mode it also mints
// until the ring assigns the id to this node, so a freshly created
// session is always owned where it lives — clients can route any later
// request by hashing the id, with no ownership table to consult.
func (s *Server) registerFresh(sess *session) *httpErr {
	// With N nodes an id lands on self with probability ~1/N; 4096 tries
	// failing means the ring or the RNG is broken, not bad luck.
	const maxMintTries = 4096
	for tries := 0; ; tries++ {
		id, err := newSessionID()
		if err != nil {
			return herr(http.StatusInternalServerError, CodeInternal, err.Error())
		}
		if s.ring != nil && s.ring.Owner(id) != s.cfg.Cluster.Self {
			if tries >= maxMintTries {
				return herr(http.StatusInternalServerError, CodeInternal,
					fmt.Sprintf("could not mint a self-owned session id in %d tries", maxMintTries))
			}
			continue
		}
		if s.registerSession(sess, id) {
			s.createdTotal.Add(1)
			return nil
		}
	}
}

// buildSession validates req, builds (or recycles) its simulator, and
// returns an unregistered session carrying the normalized request JSON
// (the resurrection config embedded in checkpoint envelopes). The caller
// owns registration and the active-session counter.
func (s *Server) buildSession(req CreateSessionRequest) (*session, *httpErr) {
	node, err := itrs.Resolve(req.Node)
	if err != nil {
		return nil, herr(http.StatusBadRequest, CodeUnknownNode, err.Error())
	}
	if req.Adaptive != nil {
		switch {
		case req.Encoding != "":
			return nil, herr(http.StatusBadRequest, CodeBadRequest,
				"adaptive and encoding are mutually exclusive (the controller names its own schemes)")
		case req.Buses > 1:
			return nil, herr(http.StatusBadRequest, CodeBadRequest,
				"adaptive requires a scalar session (buses <= 1)")
		}
		if _, err := encoding.New(req.Adaptive.Base); err != nil {
			return nil, herr(http.StatusBadRequest, CodeUnknownEncoding, "adaptive base: "+err.Error())
		}
		if _, err := encoding.New(req.Adaptive.Cool); err != nil {
			return nil, herr(http.StatusBadRequest, CodeUnknownEncoding, "adaptive cool: "+err.Error())
		}
	}
	encName := req.Encoding
	if encName == "" {
		encName = "Unencoded"
	}
	var enc encoding.Encoder
	if req.Adaptive == nil {
		enc, err = encoding.New(encName)
		if err != nil {
			return nil, herr(http.StatusBadRequest, CodeUnknownEncoding, err.Error())
		}
	}
	if req.LengthM < 0 {
		return nil, herr(http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("negative bus length %g", req.LengthM))
	}
	buses := req.Buses
	if buses == 0 {
		buses = 1
	}
	switch {
	case buses < 1 || buses > maxBuses:
		return nil, herr(http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("buses %d outside [1, %d]", req.Buses, maxBuses))
	case buses > s.cfg.MaxBatchWords:
		// The binary ingest chunk must hold at least one interleaved row.
		return nil, herr(http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("buses %d exceeds the %d-word batch limit", buses, s.cfg.MaxBatchWords))
	case buses == 1 && (req.BusGapPitches != 0 || req.DisableBusCoupling): //nanolint:ignore floateq zero means the field was absent
		return nil, herr(http.StatusBadRequest, CodeBadRequest,
			"bus_gap_pitches and disable_bus_coupling require buses > 1")
	case req.BusGapPitches < 0:
		return nil, herr(http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("negative bus gap %g", req.BusGapPitches))
	}

	// Normalise to the effective configuration so pool keys, SessionInfo
	// and the envelope config reflect what actually runs.
	length := req.LengthM
	if length == 0 { //nanolint:ignore floateq zero means the field was absent
		length = core.DefaultLength
	}
	interval := req.IntervalCycles
	if interval == 0 {
		interval = core.DefaultIntervalCycles
	}
	depth := -1
	if req.CouplingDepth != nil {
		depth = *req.CouplingDepth
	}
	norm := CreateSessionRequest{
		Node:           node.Name,
		Encoding:       encName,
		LengthM:        length,
		IntervalCycles: interval,
		CouplingDepth:  &depth,
		TrackWireTemps: req.TrackWireTemps,
		MemoSizeLog2:   req.MemoSizeLog2,
		DropSamples:    req.DropSamples,
	}
	if req.Adaptive != nil {
		// Adaptive sessions leave Encoding out of the normalized JSON —
		// the controller spec names its schemes — so the envelope config
		// round-trips through the mutual-exclusion check above.
		norm.Encoding = ""
		spec := *req.Adaptive
		norm.Adaptive = &spec
	}
	if buses > 1 {
		// The multi fields are zero for scalar sessions, so their
		// normalized JSON — and with it every v1 checkpoint envelope —
		// stays byte-identical to the single-bus wire format.
		norm.Buses = buses
		norm.BusGapPitches = req.BusGapPitches
		norm.DisableBusCoupling = req.DisableBusCoupling
	}
	reqJSON, err := json.Marshal(norm)
	if err != nil {
		return nil, herr(http.StatusInternalServerError, CodeInternal, err.Error())
	}
	cfg := core.MultiConfig{
		Config: core.Config{
			Node:           node,
			Length:         length,
			Encoder:        enc,
			CouplingDepth:  depth,
			IntervalCycles: interval,
			TrackWireTemps: req.TrackWireTemps,
			MemoSizeLog2:   req.MemoSizeLog2,
			DropSamples:    req.DropSamples,
		},
		Buses:              buses,
		BusGapPitches:      req.BusGapPitches,
		DisableBusCoupling: req.DisableBusCoupling,
	}
	info := SessionInfo{
		Node:           node.Name,
		Encoding:       encName,
		LengthM:        length,
		IntervalCycles: interval,
		CouplingDepth:  depth,
		Buses:          norm.Buses,
	}
	if req.Adaptive != nil {
		cfg.Adaptive = &core.AdaptiveConfig{
			Base:        req.Adaptive.Base,
			Cool:        req.Adaptive.Cool,
			CeilingK:    req.Adaptive.CeilingK,
			GuardK:      req.Adaptive.GuardK,
			HysteresisK: req.Adaptive.HysteresisK,
		}
		info.Encoding = "adaptive"
		info.Adaptive = norm.Adaptive
	}
	// The normalized request is the pool key: it carries every field
	// of cfg, so a pooled simulator is interchangeable after Reset.
	sim, recycled := s.pool.get(string(reqJSON))
	if !recycled {
		sim, err = core.NewMulti(cfg)
		if err != nil {
			return nil, herr(http.StatusBadRequest, CodeBadRequest, err.Error())
		}
	} else {
		s.recycledTotal.Add(1)
	}
	info.Width = sim.Width()
	info.Recycled = recycled
	return &session{
		sim:      sim,
		sem:      make(chan struct{}, 1),
		lastMemo: sim.MemoStats(),
		openMemo: sim.MemoStats(),
		reqJSON:  reqJSON,
		info:     info,
	}, nil
}

// registerSession claims id for sess, filling the id-dependent info
// fields; it reports false when the id is already taken.
func (s *Server) registerSession(sess *session, id string) bool {
	idx := shardOf(id, len(s.shards))
	sh := s.shards[idx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, exists := sh.sessions[id]; exists {
		return false
	}
	sess.id = id
	sess.info.ID = id
	sess.info.Shard = idx
	sh.sessions[id] = sess
	// A session registering here supersedes any moved-away record (it
	// migrated back, or was resurrected locally after a failover).
	if s.moved != nil {
		s.movedMu.Lock()
		delete(s.moved, id)
		s.movedMu.Unlock()
	}
	return true
}

// --- GET /v1/sessions/{id} --------------------------------------------------

func (s *Server) handleSession(w http.ResponseWriter, _ *http.Request, sess *session) {
	writeJSON(w, http.StatusOK, sess.liveInfo())
}

// --- POST /v1/sessions/{id}/step --------------------------------------------

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request, sess *session) {
	q := r.URL.Query()
	streaming := q.Get("stream") == "samples"
	var req stepReq
	if v := q.Get("seq"); v != "" {
		if streaming {
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				"seq cannot be combined with stream=samples")
			return
		}
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil || n == 0 {
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				"seq must be a positive integer")
			return
		}
		req.seq = n
	}

	var (
		started   bool // the streamed response's headers are out
		flusher   http.Flusher
		streamErr error
	)
	req.feed = func(ctx context.Context, sum *StepSummary) error {
		if streaming {
			// Samples flow back while the body is still being read; HTTP/1
			// needs explicit full-duplex (a no-op elsewhere, so the error
			// is advisory).
			//nanolint:ignore droppederr HTTP/2 and h2c are full-duplex already; nothing to enable
			_ = http.NewResponseController(w).EnableFullDuplex()
			w.Header().Set("Content-Type", "application/x-ndjson")
			flusher, _ = w.(http.Flusher)
			w.WriteHeader(http.StatusOK)
			started = true
		}
		return s.consumeBody(ctx, r, sess, sum)
	}
	if streaming {
		req.emit = func(bus int, cs core.Sample) {
			if streamErr != nil {
				return
			}
			// Append-encoded into the session's reused buffer;
			// byte-identical to json.Encoder output for the StreamLine.
			sess.encBuf = appendStreamSample(sess.encBuf[:0], fromCoreSample(bus, cs))
			_, streamErr = w.Write(sess.encBuf)
			if streamErr == nil && flusher != nil {
				flusher.Flush()
			}
		}
	}

	sum, he := s.stepSession(r.Context(), sess, req)
	switch {
	case started:
		// Headers are out; the summary or the failure is the last line.
		line := StreamLine{Summary: &sum}
		if he != nil {
			line = StreamLine{Error: &ErrorResponse{Error: he.msg, Code: he.code, Status: he.status}}
		}
		//nanolint:ignore droppederr a failed final write means the client is gone; no recovery path
		_ = json.NewEncoder(w).Encode(line)
	case sum.Duplicate:
		// Drain the already-applied body so the connection stays reusable.
		//nanolint:ignore droppederr draining a duplicate body is best-effort
		_, _ = io.Copy(io.Discard, r.Body)
		writeJSON(w, http.StatusOK, sum)
	default:
		replyJSON(w, sum, he)
	}
}

// consumeBody feeds the request body into the session's simulator:
// little-endian uint32 words for application/octet-stream, NDJSON
// StepLine batches otherwise. Work is bounded per read (MaxBatchWords)
// and the simulator checks ctx once per sampling interval, so a
// cancelled request stops within one interval.
func (s *Server) consumeBody(ctx context.Context, r *http.Request, sess *session, sum *StepSummary) error {
	if r.Header.Get("Content-Type") == "application/octet-stream" {
		return s.consumeBinary(ctx, r.Body, sess, sum)
	}
	return s.consumeNDJSON(ctx, r.Body, sess, sum)
}

func (s *Server) stepWords(ctx context.Context, sess *session, words []uint32, sum *StepSummary) error {
	buses := sess.sim.Buses()
	if len(words)%buses != 0 {
		return herr(http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("batch of %d words is not a multiple of the session's %d buses", len(words), buses))
	}
	rows, err := sess.sim.StepBatch(ctx, words)
	n := uint64(rows) * uint64(buses)
	sum.Words += n
	sess.words.Add(n)
	s.wordsTotal.Add(n)
	return err
}

func (s *Server) stepIdle(ctx context.Context, sess *session, idle uint64, sum *StepSummary) error {
	n, err := sess.sim.StepIdleBatch(ctx, idle)
	sum.Idle += n
	sess.idle.Add(n)
	s.idleTotal.Add(n)
	return err
}

func (s *Server) consumeBinary(ctx context.Context, body io.Reader, sess *session, sum *StepSummary) error {
	f := s.frames.get()
	defer s.frames.put(f)
	// A multi-bus session steps whole interleaved K-word rows, and a
	// chunked read can split one; the tail bytes carry over to the front
	// of the next chunk, so clients need no row-level framing. buildSession
	// guarantees one row fits the chunk buffer (buses <= MaxBatchWords).
	buses := sess.sim.Buses()
	rowBytes := 4 * buses
	carry := 0
	for {
		n, err := io.ReadFull(body, f.buf[carry:])
		n += carry
		carry = 0
		eof := errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
		if n > 0 {
			if eof && n%4 != 0 {
				return herr(http.StatusBadRequest, CodeBadRequest,
					fmt.Sprintf("binary body length is not a multiple of 4 (%d trailing bytes)", n%4))
			}
			if eof && n%rowBytes != 0 {
				return herr(http.StatusBadRequest, CodeBadRequest,
					fmt.Sprintf("binary body ends mid-row (%d trailing words; a %d-bus batch interleaves in multiples of %d)",
						(n%rowBytes)/4, buses, buses))
			}
			use := n - n%rowBytes
			if use > 0 {
				// Chaos harnesses arm this to fail an ingest chunk mid-batch.
				if ferr := faultinject.Hit("server.ingest.decode"); ferr != nil {
					return herr(http.StatusBadRequest, CodeBadRequest,
						"decode binary batch: "+ferr.Error())
				}
				if serr := s.stepWords(ctx, sess, nbwp.Words(f.words, f.buf[:use]), sum); serr != nil {
					return serr
				}
			}
			if rest := n - use; rest > 0 {
				copy(f.buf, f.buf[use:n])
				carry = rest
			}
		}
		switch {
		case err == nil:
			continue
		case eof:
			return nil
		default:
			// The client went away mid-body.
			return fmt.Errorf("read body: %w: %w", context.Canceled, err)
		}
	}
}

func (s *Server) consumeNDJSON(ctx context.Context, body io.Reader, sess *session, sum *StepSummary) error {
	sc := bufio.NewScanner(body)
	// A words batch serialises to at most ~11 bytes per word.
	maxLine := 16*s.cfg.MaxBatchWords + 4096
	scanBuf := s.scans.get()
	defer s.scans.put(scanBuf)
	sc.Buffer(*scanBuf, maxLine)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		// Chaos harnesses arm this to fail an ingest line mid-batch.
		if ferr := faultinject.Hit("server.ingest.decode"); ferr != nil {
			return herr(http.StatusBadRequest, CodeBadRequest,
				"decode step line: "+ferr.Error())
		}
		var sl StepLine
		if err := json.Unmarshal(line, &sl); err != nil {
			return herr(http.StatusBadRequest, CodeBadRequest, "decode step line: "+err.Error())
		}
		if len(sl.Words) > s.cfg.MaxBatchWords {
			return herr(http.StatusRequestEntityTooLarge, CodeBatchTooLarge,
				fmt.Sprintf("batch of %d words exceeds the %d-word limit", len(sl.Words), s.cfg.MaxBatchWords))
		}
		if len(sl.Words) > 0 {
			if err := s.stepWords(ctx, sess, sl.Words, sum); err != nil {
				return err
			}
		}
		if sl.Idle > 0 {
			if err := s.stepIdle(ctx, sess, sl.Idle, sum); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return herr(http.StatusRequestEntityTooLarge, CodeBatchTooLarge,
				fmt.Sprintf("step line exceeds %d bytes", maxLine))
		}
		return fmt.Errorf("read body: %w: %w", context.Canceled, err)
	}
	return nil
}

// --- GET /v1/sessions/{id}/result -------------------------------------------

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request, sess *session) {
	res, he := s.sessionResult(r.Context(), sess, r.URL.Query().Get("finish") != "0")
	replyJSON(w, res, he)
}

// resultLocked finishes the session (unless finish is false, which only
// checks for poisoning) and assembles its Result document — the single
// source both GET .../result and the NBWP RESULT frame serialize, which
// is what keeps figures bit-identical across transports. The caller must
// hold the session.
func (s *Server) resultLocked(sess *session, finish bool) (Result, *httpErr) {
	sim := sess.sim
	if finish {
		if err := sim.Finish(); err != nil {
			return Result{}, asHTTPErr(err)
		}
	} else if err := sim.Err(); err != nil {
		return Result{}, asHTTPErr(err)
	}

	grid := sim.Grid()
	per := make([]BusResult, sim.Buses())
	var total EnergySplit
	for k := range per {
		tot := sim.TotalEnergy(k)
		maxT, maxW := grid.BusMaxTemp(k)
		coreSamples := sim.Samples(k)
		samples := make([]Sample, len(coreSamples))
		for i, cs := range coreSamples {
			samples[i] = fromCoreSample(k, cs)
		}
		per[k] = BusResult{
			Bus: k,
			Total: EnergySplit{
				TotalJ:      tot.Total(),
				SelfJ:       tot.Self,
				CoupAdjJ:    tot.CoupAdj,
				CoupNonAdjJ: tot.CoupNonAdj,
			},
			AvgTempK: grid.BusAvgTemp(k),
			MaxTempK: maxT,
			MaxWire:  maxW,
			TempsK:   grid.BusTemps(k, nil),
			Samples:  samples,
		}
		total.TotalJ += tot.Total()
		total.SelfJ += tot.Self
		total.CoupAdjJ += tot.CoupAdj
		total.CoupNonAdjJ += tot.CoupNonAdj
	}
	res := Result{
		ID:     sess.id,
		Cycles: sim.Cycles(),
		Width:  sim.Width(),
		Memo:   sess.resultMemo(),
	}
	if len(per) == 1 {
		// One bus: its figures are the top level (the one-bus wire shape).
		b := per[0]
		res.Total, res.AvgTempK, res.MaxTempK, res.MaxWire = b.Total, b.AvgTempK, b.MaxTempK, b.MaxWire
		res.TempsK, res.Samples = b.TempsK, b.Samples
		if sim.Adaptive() {
			spec := sess.info.Adaptive
			switches := sim.SwitchEvents()
			if switches == nil {
				switches = []core.SwitchEvent{}
			}
			res.Adaptive = &AdaptiveResult{
				Base:      spec.Base,
				Cool:      spec.Cool,
				CeilingK:  spec.CeilingK,
				Active:    sim.ActiveEncoder(),
				Switches:  switches,
				Occupancy: sim.EncoderOccupancy(),
			}
		}
		return res, nil
	}
	// K buses: grid-wide aggregates over one BusResult per bus (each the
	// shape a one-bus session reports).
	temps := grid.Temps(nil)
	avg := 0.0
	for _, t := range temps {
		avg += t
	}
	avg /= float64(len(temps))
	maxT, maxBus, maxW := grid.MaxTemp()
	res.Total, res.AvgTempK, res.MaxTempK, res.MaxWire = total, avg, maxT, maxW
	res.TempsK, res.Samples = temps, []Sample{}
	res.Buses, res.MaxBus, res.PerBus = len(per), maxBus, per
	return res, nil
}

// --- DELETE /v1/sessions/{id} -----------------------------------------------

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request, sess *session) {
	resp, he := s.closeSession(r.Context(), sess)
	replyJSON(w, resp, he)
}

// deregister removes sess from the table and recycles its simulator,
// leaving any stored checkpoint alone (migration keeps the envelope —
// it now belongs to the target node). The caller must hold the session.
func (s *Server) deregister(sess *session) CloseResponse {
	sess.closed = true
	s.harvestMemo(sess)
	cycles := sess.cycleCount()

	sh := s.shards[sess.info.Shard]
	sh.mu.Lock()
	delete(sh.sessions, sess.id)
	sh.mu.Unlock()
	s.pool.put(sess)
	s.active.Add(-1)
	s.closedTotal.Add(1)
	return CloseResponse{ID: sess.id, Cycles: cycles}
}

// --- GET /healthz -----------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:   "ok",
		Draining: s.draining.Load(),
		Sessions: s.active.Load(),
	})
}
