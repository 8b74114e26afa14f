// Package ring is the fleet's consistent-hash ring: a deterministic
// partitioning of string keys (query signatures, tenant names, the
// feedback-journal key) across node IDs. Every node in a fleet builds the
// ring from the same membership list and must place every key on the same
// owner — that agreement is what makes peer forwarding single-hop, so the
// ring is pure arithmetic: FNV-64a over seeded virtual-node labels, sorted
// points, binary search. No wall clock, no map iteration, no randomness —
// placement is byte-identical across runs, processes and GOMAXPROCS.
//
// Virtual nodes smooth the partition: each node contributes VNodes points
// at hash("<node>#<i>"). When a node joins or leaves, only the keys whose
// ring arcs change hands move (≈ K/N of K keys for a fleet of N), which is
// what keeps a membership change from invalidating every node's warm
// cache.
package ring

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVNodes is the virtual-node count per physical node when the
// caller passes 0. 64 points per node keeps the largest/smallest shard
// ratio near 1.3 for small fleets without making Owner's binary search
// noticeably longer.
const DefaultVNodes = 64

// point is one virtual node on the ring.
type point struct {
	hash uint64
	node string
}

// Ring is an immutable consistent-hash ring. Build one with New; derive
// membership changes with WithNode/WithoutNode (the originals are never
// mutated, so a Ring can be shared across goroutines freely).
type Ring struct {
	vnodes int
	nodes  []string // sorted, unique
	points []point  // sorted by (hash, node)
}

// New builds a ring over the given node IDs with vnodes virtual nodes per
// physical node (0 selects DefaultVNodes). Node IDs must be non-empty and
// unique; order does not matter (the ring sorts them).
func New(nodes []string, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("ring: no nodes")
	}
	if vnodes == 0 {
		vnodes = DefaultVNodes
	}
	if vnodes < 1 {
		return nil, fmt.Errorf("ring: vnodes must be positive, got %d", vnodes)
	}
	sorted := make([]string, len(nodes))
	copy(sorted, nodes)
	sort.Strings(sorted)
	for i, n := range sorted {
		if n == "" {
			return nil, fmt.Errorf("ring: empty node ID")
		}
		if i > 0 && sorted[i-1] == n {
			return nil, fmt.Errorf("ring: duplicate node %q", n)
		}
	}
	r := &Ring{vnodes: vnodes, nodes: sorted}
	r.points = make([]point, 0, len(sorted)*vnodes)
	for _, n := range sorted {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, point{hash: vnodeHash(n, i), node: n})
		}
	}
	// Ties (two labels hashing identically) are broken by node ID so the
	// sort — and therefore every placement — is a pure function of the
	// membership list.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// vnodeHash seeds virtual node i of a node: FNV-64a over "<node>#<i>".
func vnodeHash(node string, i int) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(node))
	_, _ = h.Write([]byte{'#'})
	var buf [20]byte
	b := appendInt(buf[:0], i)
	_, _ = h.Write(b)
	return h.Sum64()
}

// appendInt formats a non-negative int without strconv to keep the hot
// path allocation-free.
func appendInt(b []byte, v int) []byte {
	if v == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}

// Hash returns the ring's key hash: FNV-64a of the key bytes.
func Hash(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return h.Sum64()
}

// Owner returns the node owning key: the first virtual node clockwise of
// the key's hash (wrapping at the top of the ring).
func (r *Ring) Owner(key string) string {
	return r.points[r.ownerIndex(Hash(key))].node
}

// ownerIndex locates the first point with hash >= h, wrapping to 0.
func (r *Ring) ownerIndex(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Nodes returns the ring's membership, sorted. The slice is shared — do
// not mutate it.
func (r *Ring) Nodes() []string { return r.nodes }

// Size returns the number of physical nodes on the ring.
func (r *Ring) Size() int { return len(r.nodes) }

// VNodes returns the per-node virtual-node count.
func (r *Ring) VNodes() int { return r.vnodes }

// Contains reports whether node is on the ring.
func (r *Ring) Contains(node string) bool {
	i := sort.SearchStrings(r.nodes, node)
	return i < len(r.nodes) && r.nodes[i] == node
}
