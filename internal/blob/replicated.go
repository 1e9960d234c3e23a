package blob

import (
	"context"
	"errors"
	"fmt"
	"sort"
)

// Replicated is the fan-out store that lets a cluster survive node
// death: every Put lands on the local store (which must succeed — it is
// the durability the caller was promised) and is then replicated,
// best-effort, to the peer stores. Get serves locally when possible and
// falls back to the peers, so a node resurrecting a dead neighbour's
// session finds the envelope even though it never wrote it.
//
// Replication is best-effort by design: an auto-checkpoint must not fail
// the step stream because one peer is down (that peer being down may be
// exactly why the checkpoint matters). A failed fan-out is dropped, not
// returned; the next checkpoint retries naturally.
type Replicated struct {
	local Store
	peers []Store
	// validate, when set, vets every blob read (local or peer) before it
	// is returned; a corrupt local copy falls back to the peers instead
	// of poisoning the restore.
	validate func([]byte) error
}

// ReplicatedOption configures a Replicated store.
type ReplicatedOption func(*Replicated)

// WithValidator installs fn as the blob integrity check applied before
// any Get returns data. The server passes the NBSE envelope CRC check so
// a torn replica is skipped, not restored.
func WithValidator(fn func([]byte) error) ReplicatedOption {
	return func(r *Replicated) { r.validate = fn }
}

// NewReplicated builds a Replicated store writing through local and
// fanning out to peers.
func NewReplicated(local Store, peers []Store, opts ...ReplicatedOption) *Replicated {
	r := &Replicated{local: local, peers: peers}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// Put writes locally (must succeed) then fans out to every peer
// (best-effort).
func (r *Replicated) Put(ctx context.Context, id string, data []byte) error {
	if err := r.local.Put(ctx, id, data); err != nil {
		return err
	}
	for _, p := range r.peers {
		//nanolint:ignore droppederr replication is best-effort; the next checkpoint retries a failed peer
		_ = p.Put(ctx, id, data)
	}
	return nil
}

// Get returns the local blob when present and valid, falling back to
// the peers in order. A valid peer copy is written back to the local
// store (best-effort) so the next restore is local.
func (r *Replicated) Get(ctx context.Context, id string) ([]byte, error) {
	data, lastErr := r.local.Get(ctx, id)
	if lastErr == nil {
		if r.validate == nil {
			return data, nil
		}
		if verr := r.validate(data); verr == nil {
			return data, nil
		}
		// Corrupt local copy: fall through to the peers.
		lastErr = fmt.Errorf("%w: local copy of %s failed validation", ErrNotFound, id)
	}
	for _, p := range r.peers {
		pdata, perr := p.Get(ctx, id)
		if perr != nil {
			if !errors.Is(perr, ErrNotFound) {
				lastErr = perr
			}
			continue
		}
		if r.validate != nil {
			if verr := r.validate(pdata); verr != nil {
				lastErr = verr
				continue
			}
		}
		// Repair the local copy so the next Get is one disk read; failure
		// only costs the repair, not the restore.
		//nanolint:ignore droppederr write-back repair is best-effort; the fetched blob is already in hand
		_ = r.local.Put(ctx, id, pdata)
		return pdata, nil
	}
	if errors.Is(lastErr, ErrNotFound) {
		return nil, fmt.Errorf("%w: %s (local and %d peers)", ErrNotFound, id, len(r.peers))
	}
	return nil, lastErr
}

// List returns the union of the local and peer id sets, sorted. Peers
// that fail are skipped: List feeds replication GC, which must work
// while a node is down.
func (r *Replicated) List(ctx context.Context) ([]string, error) {
	ids, err := r.local.List(ctx)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		seen[id] = true
	}
	for _, p := range r.peers {
		pids, perr := p.List(ctx)
		if perr != nil {
			continue
		}
		for _, id := range pids {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// Delete removes the blob locally and from every peer (best-effort on
// the peers: a down peer's stale replica is garbage, not a hazard — a
// resurrection from it is rejected by the seq frontier of the client).
func (r *Replicated) Delete(ctx context.Context, id string) error {
	err := r.local.Delete(ctx, id)
	for _, p := range r.peers {
		//nanolint:ignore droppederr peer deletes are best-effort GC; a stale replica only wastes space
		_ = p.Delete(ctx, id)
	}
	return err
}
