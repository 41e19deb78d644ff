// Package cluster turns a set of independent mamaserved processes into
// one sharded service. Jobs are already content-addressed (the SHA-256
// job key), so the cluster layer is thin and stateless: a consistent-
// hash ring assigns every job key an owning peer, any node accepts any
// request and routes it to the owner, and one health verdict per peer
// (Healthy: the failure detector's state plus the last RPC outcome) lets
// the serving path degrade to local compute the moment a peer stops
// answering — a partition slows the cluster down, it never surfaces
// errors to clients.
//
// Membership is seeded from the command line and maintained at runtime
// by a SWIM-style failure detector (gossip.go): probes suspect
// unresponsive peers, suspects that fail to refute are confirmed dead
// and leave the ring, and rejoining nodes announce themselves with a
// bumped incarnation. Because ring construction is deterministic (peers
// are sorted before hashing, vnode points depend only on the peer URL),
// every node that converges on the same member set computes the
// identical ring.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// DefaultVnodes is the default number of virtual nodes per peer. 128
// points per peer keeps the maximum/mean key-load ratio under ~1.25
// for small clusters (see ring_test.go) while ring construction and
// lookup stay trivially cheap.
const DefaultVnodes = 128

// ringPoint is one virtual node: a position on the 64-bit hash circle
// and the peer that owns the arc ending at it.
type ringPoint struct {
	pos  uint64
	peer string
}

// Ring is a consistent-hash ring over peer URLs. Immutable once built;
// rebuilding on membership change is cheap (sort of peers×vnodes
// points) and remaps only the keys owned by the peers that changed.
type Ring struct {
	points []ringPoint
	peers  []string // sorted, deduplicated
}

// hash64 maps a string to its position on the circle. SHA-256
// truncated to 64 bits: overkill for speed but exactly as collision-
// resistant and — more importantly — stable across architectures and
// releases, so every node agrees on ownership forever.
func hash64(s string) uint64 {
	h := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(h[:8])
}

// NewRing builds the ring for a peer list. Peers are normalized
// (sorted, deduplicated) first, so any permutation of the same list —
// every node's flag order, the order gossip delivered it in — produces
// an identical ring. vnodes <= 0 selects DefaultVnodes.
func NewRing(peers []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	norm := make([]string, 0, len(peers))
	seen := make(map[string]bool, len(peers))
	for _, p := range peers {
		p = NormalizePeer(p)
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		norm = append(norm, p)
	}
	sort.Strings(norm)
	r := &Ring{peers: norm}
	r.points = make([]ringPoint, 0, len(norm)*vnodes)
	for _, p := range norm {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{
				pos:  hash64(fmt.Sprintf("%s#%d", p, i)),
				peer: p,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].pos != r.points[j].pos {
			return r.points[i].pos < r.points[j].pos
		}
		// Tie-break on peer name so equal positions (astronomically
		// unlikely) still order identically on every node.
		return r.points[i].peer < r.points[j].peer
	})
	return r
}

// Peers returns the normalized, sorted peer list the ring was built
// from. Callers must not mutate it.
func (r *Ring) Peers() []string { return r.peers }

// Owner returns the peer owning a key: the first vnode clockwise from
// the key's position. Empty ring → "".
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	pos := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	if i == len(r.points) {
		i = 0 // wrap past the highest point to the first
	}
	return r.points[i].peer
}

// NormalizePeer canonicalizes a peer URL so that spelling variants
// ("http://a:1/", "http://a:1") hash identically on every node.
func NormalizePeer(p string) string {
	p = strings.TrimSpace(p)
	p = strings.TrimRight(p, "/")
	if p == "" {
		return ""
	}
	if !strings.Contains(p, "://") {
		p = "http://" + p
	}
	return p
}
