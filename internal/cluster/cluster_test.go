package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

// TestRingGoldenAssignments pins the ownership function to golden
// values. These must never change: every node and every client build the
// ring independently, so a Go version or refactor that shifted the
// assignment would split the cluster's notion of ownership. If this test
// fails, the hash changed — that is a breaking protocol change, not a
// golden to refresh.
func TestRingGoldenAssignments(t *testing.T) {
	r := NewRing([]string{"n1", "n2", "n3"})
	golden := map[string]string{
		"0000000000000001": "n2",
		"00000000000000ff": "n2",
		"deadbeefdeadbeef": "n3",
		"0123456789abcdef": "n2",
		"cafebabecafebabe": "n2",
		"1111111111111111": "n1",
		"2222222222222222": "n2",
		"abcdefabcdefabcd": "n3",
	}
	for id, want := range golden {
		if got := r.Owner(id); got != want {
			t.Errorf("Owner(%s) = %q, want %q", id, got, want)
		}
	}
	if got := r.Successors("deadbeefdeadbeef", 3); !reflect.DeepEqual(got, []string{"n3", "n1", "n2"}) {
		t.Errorf("Successors = %v, want [n3 n1 n2]", got)
	}
}

// TestRingOrderIndependence checks that member order (and duplicates)
// never change the assignment.
func TestRingOrderIndependence(t *testing.T) {
	a := NewRing([]string{"n1", "n2", "n3"})
	b := NewRing([]string{"n3", "n1", "n2", "n1", ""})
	for i := 0; i < 512; i++ {
		id := fmt.Sprintf("%016x", uint64(i)*0x9e3779b97f4a7c15)
		if a.Owner(id) != b.Owner(id) {
			t.Fatalf("order-dependent assignment for %s: %q vs %q", id, a.Owner(id), b.Owner(id))
		}
	}
}

// TestRingBalance bounds the ownership skew: with 64 vnodes per member a
// 3-node ring should give every node a non-trivial share.
func TestRingBalance(t *testing.T) {
	members := []string{"n1", "n2", "n3"}
	r := NewRing(members)
	counts := map[string]int{}
	const n = 4096
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("%016x", uint64(i)*0x9e3779b97f4a7c15))]++
	}
	for _, name := range members {
		share := float64(counts[name]) / n
		if share < 0.15 || share > 0.55 {
			t.Errorf("node %s owns %.1f%% of ids (counts: %v)", name, 100*share, counts)
		}
	}
}

// TestRingSuccessorsProperties checks the replication-set invariants:
// distinct members, owner first, capped at the membership.
func TestRingSuccessorsProperties(t *testing.T) {
	r := NewRing([]string{"a", "b", "c", "d"})
	for i := 0; i < 128; i++ {
		id := fmt.Sprintf("%016x", uint64(i)*0x9e3779b97f4a7c15)
		succ := r.Successors(id, 10)
		if len(succ) != 4 {
			t.Fatalf("Successors(%s, 10) = %v, want all 4 members", id, succ)
		}
		if succ[0] != r.Owner(id) {
			t.Fatalf("Successors(%s)[0] = %q, want owner %q", id, succ[0], r.Owner(id))
		}
		seen := map[string]bool{}
		for _, s := range succ {
			if seen[s] {
				t.Fatalf("Successors(%s) repeats %q: %v", id, s, succ)
			}
			seen[s] = true
		}
	}
	if got := r.Successors("0000000000000001", 0); got != nil {
		t.Errorf("Successors(n=0) = %v, want nil", got)
	}
}

func TestEmptyRing(t *testing.T) {
	var r Ring
	if got := r.Owner("deadbeef"); got != "" {
		t.Errorf("zero ring Owner = %q, want empty", got)
	}
	if got := NewRing(nil).Owner("deadbeef"); got != "" {
		t.Errorf("empty ring Owner = %q, want empty", got)
	}
	if got := NewRing(nil).Successors("deadbeef", 2); got != nil {
		t.Errorf("empty ring Successors = %v, want nil", got)
	}
}

func TestParseMembers(t *testing.T) {
	nodes, err := ParseMembers("n1=http://10.0.0.1:8080+10.0.0.1:9080, n2=http://10.0.0.2:8080/")
	if err != nil {
		t.Fatal(err)
	}
	want := []Node{
		{Name: "n1", HTTP: "http://10.0.0.1:8080", NBWP: "10.0.0.1:9080"},
		{Name: "n2", HTTP: "http://10.0.0.2:8080"},
	}
	if !reflect.DeepEqual(nodes, want) {
		t.Fatalf("ParseMembers = %+v, want %+v", nodes, want)
	}
	if n, ok := FindNode(nodes, "n2"); !ok || n.HTTP != "http://10.0.0.2:8080" {
		t.Errorf("FindNode(n2) = %+v, %v", n, ok)
	}
	if _, ok := FindNode(nodes, "n9"); ok {
		t.Error("FindNode(n9) found a ghost member")
	}
	if !reflect.DeepEqual(Names(nodes), []string{"n1", "n2"}) {
		t.Errorf("Names = %v", Names(nodes))
	}

	for _, bad := range []string{
		"",
		"   ",
		"n1",
		"n1=",
		"=http://x:1",
		"n1=tcp://10.0.0.1:9080",
		"n1=http://a:1,n1=http://b:2",
	} {
		if _, err := ParseMembers(bad); err == nil {
			t.Errorf("ParseMembers(%q) accepted a malformed spec", bad)
		}
	}
}
