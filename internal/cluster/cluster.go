// Package cluster is the multi-node layer of nanobusd: static membership
// lists and the deterministic consistent-hash ring that assigns session
// ids to nodes. The package is pure data + arithmetic — no sockets, no
// goroutines — so both the server (ownership checks, replication targets)
// and the client router (request routing, failover order) share one
// implementation and therefore one notion of ownership.
//
// Determinism contract: Owner and Successors are pure functions of the
// member names and the id. The ring is built from FNV-1a hashes (a fixed
// algorithm, unlike hash/maphash's per-process seed) over explicitly
// sorted nodes, so every node and every client — across processes, Go
// versions, and architectures — derives the same assignment. A cluster
// whose nodes disagreed on ownership would bounce sessions forever.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// Node is one cluster member: a stable name plus its advertised
// transport endpoints. Name is what the ring hashes; the addresses are
// what redirects and replication dial.
type Node struct {
	// Name is the stable member identity (e.g. "n1").
	Name string `json:"name"`
	// HTTP is the advertised v1 API base URL (e.g. "http://10.0.0.1:8080").
	HTTP string `json:"http"`
	// NBWP is the advertised NBWP host:port; empty when the node does not
	// serve the binary protocol.
	NBWP string `json:"nbwp,omitempty"`
}

// ringVnodes is the number of virtual points each member contributes.
// 64 points per node keeps the maximum ownership imbalance across a
// small static cluster under a few percent while the whole ring for a
// dozen nodes still fits in cache.
const ringVnodes = 64

// point is one virtual position on the ring.
type point struct {
	hash uint64
	node string
}

// Ring assigns ids to member names by consistent hashing. Build it with
// NewRing; the zero value owns nothing.
type Ring struct {
	points []point
	nodes  []string
}

// NewRing builds the ring over the given member names. Names are
// deduplicated and sorted before hashing, so argument order never
// changes the assignment. An empty list yields a ring that owns nothing.
func NewRing(names []string) *Ring {
	uniq := make([]string, 0, len(names))
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		uniq = append(uniq, n)
	}
	sort.Strings(uniq)
	r := &Ring{nodes: uniq, points: make([]point, 0, len(uniq)*ringVnodes)}
	for _, n := range uniq {
		for v := 0; v < ringVnodes; v++ {
			r.points = append(r.points, point{hash: hash64(fmt.Sprintf("%s#%d", n, v)), node: n})
		}
	}
	// Ties (hash collisions between distinct vnode labels) break on the
	// node name so the order is total and reproducible.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// hash64 is FNV-1a pushed through the splitmix64 finalizer. Both halves
// are fixed by specification — never hash/maphash, whose per-process
// seed would give every process its own ring. The finalizer matters:
// vnode labels differ in a character or two, and raw FNV-1a of such
// near-identical strings clusters on the ring badly enough to skew
// ownership 3:1; the finalizer's avalanche restores balance.
func hash64(s string) uint64 {
	h := fnv.New64a()
	//nanolint:ignore droppederr hash.Hash.Write is documented to never return an error
	_, _ = h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer (Steele et al.), constants fixed.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Owner returns the member that owns id, or "" on an empty ring.
func (r *Ring) Owner(id string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(id)].node
}

// search finds the first ring point at or clockwise-after id's hash.
func (r *Ring) search(id string) int {
	h := hash64(id)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Successors returns up to n distinct members in ring order starting at
// id's owner: the replication set and the failover order. n larger than
// the membership returns every member.
func (r *Ring) Successors(id string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := r.search(id); len(out) < n; i = (i + 1) % len(r.points) {
		nd := r.points[i].node
		if !seen[nd] {
			seen[nd] = true
			out = append(out, nd)
		}
	}
	return out
}

// ParseMembers parses a static membership spec: comma-separated
// name=httpURL entries, each optionally extended with an NBWP endpoint
// after a '+' —
//
//	n1=http://10.0.0.1:8080+10.0.0.1:9080,n2=http://10.0.0.2:8080
//
// The format is shared by the -cluster-members flag and the
// NANOBUS_CLUSTER_MEMBERS environment variable.
func ParseMembers(spec string) ([]Node, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("cluster: empty members spec")
	}
	var nodes []Node
	seen := make(map[string]bool)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, addr, ok := strings.Cut(entry, "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("cluster: member %q is not name=httpURL", entry)
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate member %q", name)
		}
		seen[name] = true
		httpURL, nbwpAddr, _ := strings.Cut(addr, "+")
		if !strings.HasPrefix(httpURL, "http://") && !strings.HasPrefix(httpURL, "https://") {
			return nil, fmt.Errorf("cluster: member %q address %q is not an http(s) URL", name, httpURL)
		}
		nodes = append(nodes, Node{Name: name, HTTP: strings.TrimRight(httpURL, "/"), NBWP: nbwpAddr})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: empty members spec")
	}
	return nodes, nil
}

// FindNode returns the member named name.
func FindNode(nodes []Node, name string) (Node, bool) {
	for _, n := range nodes {
		if n.Name == name {
			return n, true
		}
	}
	return Node{}, false
}

// Names projects the member names out of a node list.
func Names(nodes []Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Name
	}
	return out
}
