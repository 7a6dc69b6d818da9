// Package cluster implements consistent-hash placement of (domain, file)
// keys onto the members of a shadow-cache cluster.
//
// A Ring maps every key to exactly one owner instance. Each member
// contributes a configurable number of virtual nodes (points) on a 64-bit
// hash circle; a key is owned by the member whose point is the first at or
// after the key's hash, wrapping at the top. Virtual nodes smooth the
// placement: with the default 128 points per member, load across members
// stays within a few percent of even for realistic key populations.
//
// The ring is deterministic — two processes that construct rings from the
// same member list (in any insertion order) agree on every key's owner.
// That property is load-bearing: shadowd instances and clients never
// exchange placement state; each side hashes independently and arrives at
// the same owner.
//
// Membership changes move the minimum possible number of keys: adding a
// member steals keys only for the new member, and removing one reassigns
// only the keys it owned. Everything else stays put, which is what keeps a
// cluster's shadow caches warm across membership churn.
//
// A Ring is not safe for concurrent mutation. The intended use is
// build-once at cluster join time; concurrent readers are safe once no
// writer is active.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVirtualNodes is the per-member point count used when NewRing is
// given a non-positive vnode count. 128 keeps worst-case member imbalance
// under 15% (see TestRingBalance) while the full point array for even a
// 64-member cluster stays under 8k entries.
const DefaultVirtualNodes = 128

// point is one virtual node: a position on the hash circle owned by a
// member.
type point struct {
	hash   uint64
	member string
}

// Ring places string keys onto member instances by consistent hashing.
// The zero value is not usable; call NewRing.
type Ring struct {
	vnodes  int
	points  []point  // sorted by (hash, member)
	members []string // sorted, no duplicates
}

// NewRing builds a ring with the given points per member (vnodes <= 0
// selects DefaultVirtualNodes). Duplicate member names collapse to one.
func NewRing(vnodes int, members ...string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{vnodes: vnodes}
	for _, m := range members {
		r.Add(m)
	}
	return r
}

// Add inserts a member. Adding a present member is a no-op.
func (r *Ring) Add(member string) {
	i := sort.SearchStrings(r.members, member)
	if i < len(r.members) && r.members[i] == member {
		return
	}
	r.members = append(r.members, "")
	copy(r.members[i+1:], r.members[i:])
	r.members[i] = member
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, point{hash: pointHash(member, v), member: member})
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].member < r.points[b].member
	})
}

// Members returns the current member names in sorted order. The slice is a
// copy.
func (r *Ring) Members() []string {
	return append([]string(nil), r.members...)
}

// Len reports the number of members.
func (r *Ring) Len() int { return len(r.members) }

// Owner returns the member that owns key, or "" when the ring is empty.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(key)].member
}

// Successors returns every member in ring order starting at key's owner:
// element 0 is the owner, and the rest are the distinct members whose
// points follow on the circle. Clients walk this list when the owner is
// unreachable so that all parties agree on the fallback order too.
func (r *Ring) Successors(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.members))
	seen := make(map[string]bool, len(r.members))
	for i, n := r.search(key), len(r.points); len(out) < len(r.members); i++ {
		p := r.points[i%n]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, p.member)
		}
	}
	return out
}

// search locates the index of the first point at or after key's hash,
// wrapping to 0 past the top of the circle.
func (r *Ring) search(key string) int {
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// keyHash positions a key on the circle (FNV-64a: deterministic across
// processes and Go releases, unlike maphash). FNV alone avalanches poorly
// on short, similar inputs — exactly what member#vnode and path-like file
// keys are — so the output goes through a splitmix64 finalizer to spread
// the points evenly.
func keyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return mix64(h.Sum64())
}

// pointHash positions one of a member's virtual nodes on the circle.
func pointHash(member string, vnode int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d", member, vnode)
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: a fixed bijective scrambler with full
// avalanche.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
