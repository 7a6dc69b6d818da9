package cluster

import (
	"fmt"
	"sort"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("nfs.purdue//arthur:/u/comer/file-%04d.f", i)
	}
	return out
}

// TestRingDeterminism: rings built from the same members — in any insertion
// order, or rebuilt from scratch — agree on every key. Placement is computed
// independently by servers and clients, so this property is load-bearing.
func TestRingDeterminism(t *testing.T) {
	a := NewRing(128, "alpha", "beta", "gamma", "delta")
	b := NewRing(128, "delta", "gamma", "beta", "alpha")
	c := NewRing(128)
	for _, m := range []string{"beta", "delta", "alpha", "gamma"} {
		c.Add(m)
	}
	for _, k := range keys(2000) {
		if a.Owner(k) != b.Owner(k) || a.Owner(k) != c.Owner(k) {
			t.Fatalf("owner of %q differs across construction orders: %q %q %q",
				k, a.Owner(k), b.Owner(k), c.Owner(k))
		}
	}
}

// TestRingBalance: at the default 128 virtual nodes, every member's share of
// a large key population stays within 15% of even.
func TestRingBalance(t *testing.T) {
	members := []string{"shadow-a", "shadow-b", "shadow-c", "shadow-d"}
	r := NewRing(DefaultVirtualNodes, members...)
	counts := make(map[string]int)
	ks := keys(20000)
	for _, k := range ks {
		counts[r.Owner(k)]++
	}
	mean := float64(len(ks)) / float64(len(members))
	for _, m := range members {
		dev := (float64(counts[m]) - mean) / mean
		if dev < -0.15 || dev > 0.15 {
			t.Errorf("member %s owns %d keys (%.1f%% from even share %f)",
				m, counts[m], dev*100, mean)
		}
	}
}

// TestRingMinimalReshuffle: adding a member moves keys only TO the new
// member, removing one moves only the keys it owned, and the moved fraction
// on an add is close to the ideal 1/n.
func TestRingMinimalReshuffle(t *testing.T) {
	members := []string{"shadow-a", "shadow-b", "shadow-c", "shadow-d"}
	ks := keys(20000)

	before := NewRing(128, members...)
	after := NewRing(128, append(append([]string(nil), members...), "shadow-e")...)
	moved := 0
	for _, k := range ks {
		was, now := before.Owner(k), after.Owner(k)
		if was != now {
			moved++
			if now != "shadow-e" {
				t.Fatalf("key %q moved %s -> %s, not to the new member", k, was, now)
			}
		}
	}
	ideal := float64(len(ks)) / 5
	if f := float64(moved); f < ideal*0.7 || f > ideal*1.3 {
		t.Errorf("add moved %d keys, want about %.0f (1/5 of %d)", moved, ideal, len(ks))
	}

	shrunk := NewRing(128, members...)
	shrunk.Remove("shadow-b")
	for _, k := range ks {
		was, now := before.Owner(k), shrunk.Owner(k)
		if was != "shadow-b" && was != now {
			t.Fatalf("key %q owned by %s moved to %s when shadow-b left", k, was, now)
		}
		if now == "shadow-b" {
			t.Fatalf("key %q still owned by removed member", k)
		}
	}
}

// TestRingSuccessors: the fallback order starts at the owner, visits every
// member exactly once, and is itself deterministic.
func TestRingSuccessors(t *testing.T) {
	r := NewRing(128, "a", "b", "c")
	for _, k := range keys(200) {
		succ := r.Successors(k)
		if len(succ) != 3 {
			t.Fatalf("Successors(%q) = %v, want 3 members", k, succ)
		}
		if succ[0] != r.Owner(k) {
			t.Fatalf("Successors(%q)[0] = %s, owner = %s", k, succ[0], r.Owner(k))
		}
		seen := map[string]bool{}
		for _, m := range succ {
			if seen[m] {
				t.Fatalf("Successors(%q) repeats %s", k, m)
			}
			seen[m] = true
		}
	}
}

// TestRingEdgeCases: empty ring, single member, duplicate adds, absent
// removes.
func TestRingEdgeCases(t *testing.T) {
	r := NewRing(0)
	if r.Owner("anything") != "" {
		t.Error("empty ring returned an owner")
	}
	if r.Successors("anything") != nil {
		t.Error("empty ring returned successors")
	}
	r.Remove("ghost") // no-op
	r.Add("solo")
	r.Add("solo") // duplicate collapses
	if r.Len() != 1 {
		t.Fatalf("Len = %d after duplicate add, want 1", r.Len())
	}
	if got := r.Owner("anything"); got != "solo" {
		t.Errorf("single-member owner = %q", got)
	}
	if got := r.Members(); len(got) != 1 || got[0] != "solo" {
		t.Errorf("Members = %v", got)
	}
}

// Remove deletes a member. Removing an absent member is a no-op.
func (r *Ring) Remove(member string) {
	i := sort.SearchStrings(r.members, member)
	if i == len(r.members) || r.members[i] != member {
		return
	}
	r.members = append(r.members[:i], r.members[i+1:]...)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}
