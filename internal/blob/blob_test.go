package blob

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// storeConformance drives one Store implementation through the
// round-trip, overwrite, list, delete, and invalid-id contract.
func storeConformance(t *testing.T, st Store) {
	t.Helper()
	ctx := context.Background()

	if _, err := st.Get(ctx, "deadbeef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(absent) = %v, want ErrNotFound", err)
	}
	if err := st.Put(ctx, "deadbeef", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(ctx, "cafe", []byte("two")); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get(ctx, "deadbeef")
	if err != nil || !bytes.Equal(got, []byte("one")) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	// Overwrite replaces.
	if err := st.Put(ctx, "deadbeef", []byte("three")); err != nil {
		t.Fatal(err)
	}
	if got, _ := st.Get(ctx, "deadbeef"); !bytes.Equal(got, []byte("three")) {
		t.Fatalf("Get after overwrite = %q", got)
	}
	ids, err := st.List(ctx)
	if err != nil || !reflect.DeepEqual(ids, []string{"cafe", "deadbeef"}) {
		t.Fatalf("List = %v, %v", ids, err)
	}
	if err := st.Delete(ctx, "cafe"); err != nil {
		t.Fatal(err)
	}
	// Deleting an absent blob is a no-op.
	if err := st.Delete(ctx, "cafe"); err != nil {
		t.Fatalf("Delete(absent) = %v", err)
	}
	if _, err := st.Get(ctx, "cafe"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete = %v, want ErrNotFound", err)
	}

	for _, id := range []string{"", "../escape", "a/b", "UPPER", "xyz", strings.Repeat("a", 65)} {
		if err := st.Put(ctx, id, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an invalid id", id)
		}
		if _, err := st.Get(ctx, id); err == nil {
			t.Errorf("Get(%q) accepted an invalid id", id)
		}
	}
}

func TestMemStoreConformance(t *testing.T) { storeConformance(t, NewMemStore()) }

func TestFSStoreConformance(t *testing.T) {
	st, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	storeConformance(t, st)
}

func TestMemStoreCopies(t *testing.T) {
	st := NewMemStore()
	ctx := context.Background()
	data := []byte("abc")
	if err := st.Put(ctx, "aa", data); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X'
	got, err := st.Get(ctx, "aa")
	if err != nil || string(got) != "abc" {
		t.Fatalf("caller mutation leaked into the store: %q, %v", got, err)
	}
	got[0] = 'Y'
	if again, _ := st.Get(ctx, "aa"); string(again) != "abc" {
		t.Fatalf("reader mutation leaked into the store: %q", again)
	}
}

func TestValidID(t *testing.T) {
	for id, want := range map[string]bool{
		"a": true, "deadbeef0123456789": true, strings.Repeat("f", 64): true,
		"": false, strings.Repeat("f", 65): false, "A": false, "g": false, "a-b": false,
	} {
		if got := ValidID(id); got != want {
			t.Errorf("ValidID(%q) = %v, want %v", id, got, want)
		}
	}
}

// --- Replicated ---------------------------------------------------------------

// failingStore wraps a Store, failing every operation.
type failingStore struct{}

func (failingStore) Put(context.Context, string, []byte) error { return errors.New("peer down") }
func (failingStore) Get(context.Context, string) ([]byte, error) {
	return nil, errors.New("peer down")
}
func (failingStore) List(context.Context) ([]string, error) { return nil, errors.New("peer down") }
func (failingStore) Delete(context.Context, string) error   { return errors.New("peer down") }

func TestReplicatedFanOutAndFallback(t *testing.T) {
	ctx := context.Background()
	local, p1, p2 := NewMemStore(), NewMemStore(), NewMemStore()
	r := NewReplicated(local, []Store{p1, p2})

	if err := r.Put(ctx, "deadbeef", []byte("env")); err != nil {
		t.Fatal(err)
	}
	for i, st := range []Store{local, p1, p2} {
		if got, err := st.Get(ctx, "deadbeef"); err != nil || string(got) != "env" {
			t.Fatalf("copy %d = %q, %v", i, got, err)
		}
	}

	// Local loss: Get falls back to a peer and repairs the local copy.
	if err := local.Delete(ctx, "deadbeef"); err != nil {
		t.Fatal(err)
	}
	if got, err := r.Get(ctx, "deadbeef"); err != nil || string(got) != "env" {
		t.Fatalf("peer fallback = %q, %v", got, err)
	}
	if got, err := local.Get(ctx, "deadbeef"); err != nil || string(got) != "env" {
		t.Fatalf("write-back repair missing: %q, %v", got, err)
	}

	if _, err := r.Get(ctx, "ab"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(absent everywhere) = %v, want ErrNotFound", err)
	}
}

func TestReplicatedSurvivesDeadPeer(t *testing.T) {
	ctx := context.Background()
	local, live := NewMemStore(), NewMemStore()
	r := NewReplicated(local, []Store{failingStore{}, live})
	// A dead peer must not fail the Put (the checkpoint is the durability
	// the caller was promised), nor stop the fan-out to the next peer.
	if err := r.Put(ctx, "deadbeef", []byte("env")); err != nil {
		t.Fatalf("Put with dead peer = %v", err)
	}
	if got, err := live.Get(ctx, "deadbeef"); err != nil || string(got) != "env" {
		t.Errorf("live peer after a dead one = %q, %v; want the replica", got, err)
	}
	if got, err := r.Get(ctx, "deadbeef"); err != nil || string(got) != "env" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if ids, err := r.List(ctx); err != nil || !reflect.DeepEqual(ids, []string{"deadbeef"}) {
		t.Fatalf("List with dead peer = %v, %v", ids, err)
	}
	if err := r.Delete(ctx, "deadbeef"); err != nil {
		t.Fatalf("Delete with dead peer = %v", err)
	}
}

// TestReplicatedCorruptLocalFallsBack is the replica-integrity test: a
// valid-looking local blob that fails validation is skipped in favor of
// a peer copy that passes, and the restore succeeds from the second
// source.
func TestReplicatedCorruptLocalFallsBack(t *testing.T) {
	ctx := context.Background()
	local, peer := NewMemStore(), NewMemStore()
	r := NewReplicated(local, []Store{peer}, WithValidator(func(b []byte) error {
		if !bytes.HasPrefix(b, []byte("ok")) {
			return errors.New("corrupt")
		}
		return nil
	}))
	if err := local.Put(ctx, "deadbeef", []byte("torn...")); err != nil {
		t.Fatal(err)
	}
	if err := peer.Put(ctx, "deadbeef", []byte("ok-env")); err != nil {
		t.Fatal(err)
	}
	got, err := r.Get(ctx, "deadbeef")
	if err != nil || string(got) != "ok-env" {
		t.Fatalf("corrupt-local fallback = %q, %v", got, err)
	}
	// The repair overwrote the torn local copy.
	if fixed, _ := local.Get(ctx, "deadbeef"); string(fixed) != "ok-env" {
		t.Fatalf("local copy not repaired: %q", fixed)
	}

	// All copies corrupt: the restore must fail, not hand back garbage.
	if err := peer.Put(ctx, "deadbeef", []byte("also-torn")); err != nil {
		t.Fatal(err)
	}
	if err := local.Put(ctx, "deadbeef", []byte("torn...")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(ctx, "deadbeef"); err == nil {
		t.Fatal("Get returned a blob that failed validation everywhere")
	}
}

func TestReplicatedListUnion(t *testing.T) {
	ctx := context.Background()
	local, peer := NewMemStore(), NewMemStore()
	r := NewReplicated(local, []Store{peer, failingStore{}})
	for i, st := range []Store{local, peer} {
		if err := st.Put(ctx, fmt.Sprintf("%02d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := local.Put(ctx, "99", []byte("x")); err != nil {
		t.Fatal(err)
	}
	ids, err := r.List(ctx)
	if err != nil || !reflect.DeepEqual(ids, []string{"00", "01", "99"}) {
		t.Fatalf("List union = %v, %v", ids, err)
	}
}
