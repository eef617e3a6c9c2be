package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// The consistent-hash ring maps every configuration fingerprint to an
// owner replica. Determinism does the heavy lifting: because a
// fingerprint identifies exactly one artifact byte-set, "who serves
// this run" is a pure routing question — any replica that computes it
// produces the same bytes, so the ring only has to make replicas
// *agree* on a default owner, not keep them consistent. All hashing is
// SHA-256-derived so every process, architecture, and Go release maps
// the same membership to the same ring; the ring must never depend on
// map iteration order or hash/maphash's per-process seed.

// defaultVirtualNodes is the per-peer vnode count. 128 points per peer
// keeps the per-peer share of key space within a few percent of uniform
// for small clusters while the ring stays a few-KB sorted slice.
const defaultVirtualNodes = 128

// Ring is an immutable consistent-hash ring over a set of peer names
// (base URLs in practice). Build a new Ring to change membership; the
// point of consistent hashing is that the rebuilt ring moves only
// ~1/n of the key space.
type Ring struct {
	points []ringPoint // sorted by hash
	peers  []string    // sorted member list
}

type ringPoint struct {
	hash uint64
	peer string
}

// NewRing builds a ring with vnodes virtual points per peer (<=0 uses
// the default). Peer order is irrelevant — membership is a set.
func NewRing(peers []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVirtualNodes
	}
	members := append([]string(nil), peers...)
	sort.Strings(members)
	r := &Ring{peers: members, points: make([]ringPoint, 0, len(members)*vnodes)}
	for _, p := range members {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: pointHash(fmt.Sprintf("%s\x00%d", p, i)), peer: p})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break by peer name so equal hashes (vanishingly rare but
		// possible) still order identically on every replica.
		return r.points[i].peer < r.points[j].peer
	})
	return r
}

// pointHash maps a label to its position on the ring: the first 8 bytes
// of SHA-256, the same digest family the fingerprint itself uses.
func pointHash(label string) uint64 {
	sum := sha256.Sum256([]byte(label))
	return binary.BigEndian.Uint64(sum[:8])
}

// Peers returns the sorted membership.
func (r *Ring) Peers() []string { return r.peers }

// Owner returns the peer owning key: the first point clockwise from the
// key's position. Empty ring returns "".
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.successorIndex(key)].peer
}

// Sequence returns every peer in ring order starting at key's owner:
// the owner first, then each distinct successor. This is the takeover
// order — when the owner is unreachable, the first healthy entry after
// it is the authority, and every replica walking the same sequence
// converges on the same stand-in.
func (r *Ring) Sequence(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	seq := make([]string, 0, len(r.peers))
	seen := make(map[string]bool, len(r.peers))
	for i, start := 0, r.successorIndex(key); i < len(r.points) && len(seq) < len(r.peers); i++ {
		p := r.points[(start+i)%len(r.points)].peer
		if !seen[p] {
			seen[p] = true
			seq = append(seq, p)
		}
	}
	return seq
}

// successorIndex locates the first ring point at or clockwise after the
// key's hash (wrapping past the top).
func (r *Ring) successorIndex(key string) int {
	h := pointHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}
