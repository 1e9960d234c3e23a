package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"nanobus/internal/blob"
	"nanobus/internal/cluster"
)

// This file is the server side of cluster mode: ownership redirects
// (not_owner/moved with the owning node's contacts), checkpoint-based
// session migration, and the peer blob endpoints the replicated store
// fans out to. Single-node servers keep all of it inert — the ring is
// nil, redirects never fire, and the blob endpoints answer 501 unless a
// store is configured.

// --- Ownership ----------------------------------------------------------------

// ownerInfo resolves a member name to its advertised contacts.
func (s *Server) ownerInfo(name string) *OwnerInfo {
	n, ok := cluster.FindNode(s.cfg.Cluster.Nodes, name)
	if !ok {
		return &OwnerInfo{Node: name}
	}
	return &OwnerInfo{Node: n.Name, URL: n.HTTP, NBWP: n.NBWP}
}

// redirectErr returns the cluster redirect for a session this node does
// not hold, or nil when a plain not-found is the right answer (single
// node, or an id the ring does assign here). The moved table wins over
// the ring: a freshly migrated session's owner-of-record is wherever the
// migration put it, even though the ring still hashes the id here.
func (s *Server) redirectErr(id string) *httpErr {
	if s.ring == nil {
		return nil
	}
	s.movedMu.Lock()
	target, wasMoved := s.moved[id]
	s.movedMu.Unlock()
	if wasMoved {
		s.movedTotal.Add(1)
		return &httpErr{http.StatusMisdirectedRequest, CodeMoved,
			fmt.Sprintf("session %s migrated to node %s", id, target), s.ownerInfo(target)}
	}
	if owner := s.ring.Owner(id); owner != s.cfg.Cluster.Self {
		s.notOwnerTotal.Add(1)
		return &httpErr{http.StatusMisdirectedRequest, CodeNotOwner,
			fmt.Sprintf("session %s belongs to node %s", id, owner), s.ownerInfo(owner)}
	}
	return nil
}

// notFoundErr classifies a session-table miss: a cluster redirect when
// another node serves the id, otherwise the plain 404.
func (s *Server) notFoundErr(id string) *httpErr {
	if he := s.redirectErr(id); he != nil {
		return he
	}
	return &httpErr{status: http.StatusNotFound, code: CodeNotFound, msg: "unknown session"}
}

// closedErr classifies a request that caught a session mid-teardown: a
// migration away reports the new owner (the racing request must follow
// it), a local close stays a plain 404.
func (s *Server) closedErr(id string) *httpErr {
	if he := s.redirectErr(id); he != nil {
		return he
	}
	return &httpErr{status: http.StatusNotFound, code: CodeNotFound, msg: "session closed"}
}

// --- GET /v1/cluster ----------------------------------------------------------

// ClusterStatus is the body of GET /v1/cluster: the node's own identity
// and the full static membership, which is all a client needs to build
// the same ring the servers route by. Self is empty on single-node
// servers.
type ClusterStatus struct {
	Self     string         `json:"self"`
	Nodes    []cluster.Node `json:"nodes"`
	Replicas int            `json:"replicas"`
}

func (s *Server) handleClusterStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, ClusterStatus{
		Self:     s.cfg.Cluster.Self,
		Nodes:    s.cfg.Cluster.Nodes,
		Replicas: s.cfg.Cluster.Replicas,
	})
}

// --- POST /v1/cluster/sessions/{id}/migrate -----------------------------------

// MigrateRequest names the node a session should move to.
type MigrateRequest struct {
	Target string `json:"target"`
}

// MigrateResponse acknowledges a completed migration: the session now
// lives on Target, restored at Seq.
type MigrateResponse struct {
	ID     string `json:"id"`
	Target string `json:"target"`
	Seq    uint64 `json:"seq"`
	Cycles uint64 `json:"cycles"`
}

// handleMigrate moves a session to another node: checkpoint here,
// restore there, then redirect stragglers. The session is held (under
// the shared operation policy) across the whole move, so a racing STEP
// serializes behind it and finds the session either still here (applied
// normally, before the checkpoint) or moved (redirected, applied on the
// target) — there is no interleaving in which a batch lands on both
// nodes.
func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	if s.ring == nil {
		writeError(w, http.StatusNotImplemented, CodeBadRequest, "server is not in cluster mode")
		return
	}
	var req MigrateRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "decode request: "+err.Error())
		return
	}
	target, ok := cluster.FindNode(s.cfg.Cluster.Nodes, req.Target)
	if !ok {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("unknown target node %q", req.Target))
		return
	}
	if target.Name == s.cfg.Cluster.Self {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "target is this node")
		return
	}
	id := r.PathValue("id")
	sess, he := s.lookup(id)
	if he != nil {
		writeHTTPErr(w, he)
		return
	}
	var resp MigrateResponse
	he = s.withSession(r.Context(), sess, func(ctx context.Context) *httpErr {
		info, data, he := s.checkpointLocked(ctx, sess)
		if he != nil {
			return he
		}
		if err := s.restoreOnPeer(ctx, target, id, data); err != nil {
			return herr(http.StatusBadGateway, CodeInternal,
				fmt.Sprintf("restore on %s: %v", target.Name, err))
		}
		// The target serves the session from here on. Record the move
		// before deregistering so a request that misses the table finds
		// the redirect, and keep the stored envelope — it is the target's
		// replica now.
		s.movedMu.Lock()
		s.moved[id] = target.Name
		s.movedMu.Unlock()
		s.deregister(sess)
		s.migratedTotal.Add(1)
		resp = MigrateResponse{ID: id, Target: target.Name, Seq: info.Seq, Cycles: info.Cycles}
		return nil
	})
	replyJSON(w, resp, he)
}

// restoreOnPeer pushes a checkpoint envelope to target's inline-restore
// endpoint, resurrecting the session there.
func (s *Server) restoreOnPeer(ctx context.Context, target cluster.Node, id string, data []byte) error {
	url := target.HTTP + "/v1/sessions/" + id + "/restore"
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, url, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := s.peerHC.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		//nanolint:ignore droppederr the restore outcome is the status; body close is best-effort
		_ = resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		//nanolint:ignore droppederr the status error is reported; the body snippet is best-effort color
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}

// --- Peer blob endpoints ------------------------------------------------------

// peerStore is the store the /v1/cluster/blobs endpoints serve: the
// node's local store, never the replicated one (a peer writing here must
// not trigger a second fan-out).
func (s *Server) peerStore() BlobStore {
	if s.cfg.PeerStore != nil {
		return s.cfg.PeerStore
	}
	return s.cfg.Store
}

func (s *Server) handleBlobPut(w http.ResponseWriter, r *http.Request) {
	st := s.peerStore()
	if st == nil {
		writeError(w, http.StatusNotImplemented, CodeNoStore, "no checkpoint store configured")
		return
	}
	id := r.PathValue("id")
	if !blob.ValidID(id) {
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("invalid blob id %q", id))
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxEnvelopeBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "read blob: "+err.Error())
		return
	}
	if len(data) > maxEnvelopeBytes {
		writeError(w, http.StatusRequestEntityTooLarge, CodeBatchTooLarge,
			fmt.Sprintf("blob exceeds %d bytes", maxEnvelopeBytes))
		return
	}
	// Replicas are vetted on arrival: accepting a torn envelope would
	// defeat the point of holding a second copy.
	if err := ValidateEnvelope(data); err != nil {
		he := asHTTPErr(err)
		writeError(w, he.status, he.code, he.msg)
		return
	}
	if err := st.Put(r.Context(), id, data); err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleBlobGet(w http.ResponseWriter, r *http.Request) {
	st := s.peerStore()
	if st == nil {
		writeError(w, http.StatusNotImplemented, CodeNoStore, "no checkpoint store configured")
		return
	}
	data, err := st.Get(r.Context(), r.PathValue("id"))
	if errors.Is(err, blob.ErrNotFound) {
		writeError(w, http.StatusNotFound, CodeNoCheckpoint, err.Error())
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	//nanolint:ignore droppederr a failed response write means the peer is gone; no recovery path
	_, _ = w.Write(data)
}

func (s *Server) handleBlobDelete(w http.ResponseWriter, r *http.Request) {
	st := s.peerStore()
	if st == nil {
		writeError(w, http.StatusNotImplemented, CodeNoStore, "no checkpoint store configured")
		return
	}
	if err := st.Delete(r.Context(), r.PathValue("id")); err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleBlobList(w http.ResponseWriter, r *http.Request) {
	st := s.peerStore()
	if st == nil {
		writeError(w, http.StatusNotImplemented, CodeNoStore, "no checkpoint store configured")
		return
	}
	ids, err := st.List(r.Context())
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	if ids == nil {
		ids = []string{}
	}
	writeJSON(w, http.StatusOK, ids)
}
