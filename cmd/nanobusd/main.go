// Command nanobusd serves the unified bus energy/thermal model as a
// long-running streaming HTTP service (the v1 API of internal/server).
//
//	nanobusd -addr :8080
//
// Sessions wrap reusable simulators recycled through a keyed pool; trace
// words stream in as NDJSON or binary batches; per-interval samples
// stream back. SIGINT/SIGTERM drains gracefully: new sessions are
// refused, in-flight requests finish (bounded by -drain-timeout), then
// the process exits 0.
//
//	nanobusd -addr 127.0.0.1:0 -shards 8 -max-sessions 1024 \
//	         -max-batch 65536 -request-timeout 2m -drain-timeout 30s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registered on the default mux, served only with -pprof
	"os"
	"os/signal"
	"sort"
	"strconv"
	"syscall"
	"time"

	"nanobus/internal/blob"
	"nanobus/internal/cluster"
	"nanobus/internal/server"
)

func main() {
	os.Exit(realMain())
}

// envOr reads an environment fallback for a flag default.
func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// envIntOr is envOr for integer-valued variables; malformed values fall
// back to def rather than failing startup.
func envIntOr(key string, def int) int {
	if v := os.Getenv(key); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}

// replicationPeers picks the k members cyclically following self in name
// order — the deterministic fan-out set for checkpoint replication.
func replicationPeers(nodes []cluster.Node, self string, k int) []cluster.Node {
	others := make([]cluster.Node, 0, len(nodes))
	selfIdx := -1
	sorted := append([]cluster.Node(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for i, n := range sorted {
		if n.Name == self {
			selfIdx = i
		}
	}
	if selfIdx < 0 {
		return nil
	}
	for i := 1; i < len(sorted) && len(others) < k; i++ {
		others = append(others, sorted[(selfIdx+i)%len(sorted)])
	}
	return others
}

func realMain() int {
	fs := flag.NewFlagSet("nanobusd", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address (host:port; port 0 picks an ephemeral port)")
	nbwpAddr := fs.String("nbwp-addr", "", "NBWP binary-protocol listen address (empty = disabled)")
	shards := fs.Int("shards", 0, "session-table shards (0 = default 8)")
	maxSessions := fs.Int("max-sessions", 0, "max concurrently open sessions (0 = default 1024)")
	maxBatch := fs.Int("max-batch", 0, "max words per batch (0 = default 65536)")
	maxPool := fs.Int("max-pool", 0, "max recycled simulators kept per configuration (0 = default 32)")
	reqTimeout := fs.Duration("request-timeout", 0, "timeout for every session operation: HTTP request or NBWP frame (0 = none)")
	acqTimeout := fs.Duration("acquire-timeout", 0, "max wait for a busy session before 409 (0 = default 1s)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight requests on shutdown")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty = disabled)")
	ckptDir := fs.String("checkpoint-dir", "", "directory for durable session checkpoints (empty = no store; checkpoint?download=1 still works)")
	ckptEvery := fs.Uint64("checkpoint-every", 0, "auto-checkpoint each session every N simulated cycles (0 = manual only; requires -checkpoint-dir)")
	clusterSelf := fs.String("cluster-self", envOr("NANOBUS_CLUSTER_SELF", ""), "this node's name in -cluster-members (empty = single-node mode)")
	clusterMembers := fs.String("cluster-members", envOr("NANOBUS_CLUSTER_MEMBERS", ""), "static membership, name=http://host:port[+nbwphost:port],... (requires -cluster-self)")
	clusterReplicas := fs.Int("cluster-replicas", envIntOr("NANOBUS_CLUSTER_REPLICAS", 2), "total checkpoint copies per session, local included (cluster mode)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}

	if *pprofAddr != "" {
		// Profiling stays off the service handler: it binds its own
		// listener (keep it loopback-only) and is disabled by default.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nanobusd: pprof listen: %v\n", err)
			return 1
		}
		fmt.Printf("nanobusd: pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() {
			// net/http/pprof registers on the default mux.
			//nanolint:ignore droppederr the profiler dying must not take the service down
			_ = http.Serve(pln, nil)
		}()
	}

	var store server.BlobStore
	var local server.BlobStore
	if *ckptDir != "" {
		st, err := blob.NewFSStore(*ckptDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nanobusd: checkpoint store: %v\n", err)
			return 1
		}
		store, local = st, st
	} else if *ckptEvery > 0 {
		fmt.Fprintln(os.Stderr, "nanobusd: -checkpoint-every requires -checkpoint-dir")
		return 2
	}

	var clusterCfg server.ClusterConfig
	if *clusterSelf != "" || *clusterMembers != "" {
		if *clusterSelf == "" || *clusterMembers == "" {
			fmt.Fprintln(os.Stderr, "nanobusd: -cluster-self and -cluster-members must be set together")
			return 2
		}
		nodes, err := cluster.ParseMembers(*clusterMembers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nanobusd: -cluster-members: %v\n", err)
			return 2
		}
		self, ok := cluster.FindNode(nodes, *clusterSelf)
		if !ok {
			fmt.Fprintf(os.Stderr, "nanobusd: -cluster-self %q is not in -cluster-members\n", *clusterSelf)
			return 2
		}
		if local == nil {
			fmt.Fprintln(os.Stderr, "nanobusd: cluster mode requires -checkpoint-dir (checkpoints are the migration and failover medium)")
			return 2
		}
		clusterCfg = server.ClusterConfig{Self: self.Name, Nodes: nodes, Replicas: *clusterReplicas}
		// Checkpoints replicate to the replicas-1 members that follow this
		// node in name order (a cyclic, deterministic choice every member
		// agrees on), so any single node death leaves a surviving copy.
		var peers []blob.Store
		for _, n := range replicationPeers(nodes, self.Name, *clusterReplicas-1) {
			peers = append(peers, blob.NewHTTPStore(n.HTTP, nil))
		}
		store = blob.NewReplicated(local, peers, blob.WithValidator(server.ValidateEnvelope))
	}

	srv := server.New(server.Config{
		Shards:               *shards,
		MaxSessions:          *maxSessions,
		MaxBatchWords:        *maxBatch,
		MaxPoolPerKey:        *maxPool,
		RequestTimeout:       *reqTimeout,
		AcquireTimeout:       *acqTimeout,
		Store:                store,
		PeerStore:            local,
		Cluster:              clusterCfg,
		AutoCheckpointCycles: *ckptEvery,
	})
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nanobusd: listen: %v\n", err)
		return 1
	}
	// The smoke harness and operators parse this line for the bound port.
	// The NBWP banner, when enabled, must come after it.
	fmt.Printf("nanobusd: listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	if *nbwpAddr != "" {
		nln, err := net.Listen("tcp", *nbwpAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nanobusd: nbwp listen: %v\n", err)
			return 1
		}
		fmt.Printf("nanobusd: nbwp on %s\n", nln.Addr())
		go func() {
			if err := srv.ServeNBWP(nln); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintf(os.Stderr, "nanobusd: nbwp serve: %v\n", err)
			}
		}()
	}

	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "nanobusd: serve: %v\n", err)
			return 1
		}
		return 0
	case <-ctx.Done():
	}

	fmt.Printf("nanobusd: signal received, draining (%d sessions active)\n", srv.SessionsActive())
	srv.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.ShutdownNBWP(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "nanobusd: nbwp drain timed out: %v\n", err)
		// Fall through: HTTP shutdown still gets its chance within the
		// same deadline, and we report the partial drain via exit code.
		if err := hs.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "nanobusd: drain timed out: %v\n", err)
		}
		return 1
	}
	if err := hs.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "nanobusd: drain timed out: %v\n", err)
		if err := hs.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "nanobusd: close: %v\n", err)
		}
		return 1
	}
	fmt.Println("nanobusd: drained cleanly")
	return 0
}
