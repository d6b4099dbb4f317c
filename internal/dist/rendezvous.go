package dist

import (
	"hash/fnv"
	"sort"
)

// Rank orders peers for a shard key by rendezvous (highest-random-weight)
// hashing: every (key, peer) pair hashes to a weight and peers are returned
// in descending weight order, ties broken by name. The first entry is the
// shard's owner; the rest are the reroute/hedge fallback order.
//
// Rendezvous hashing gives the stability property scale-out placement
// needs: removing a peer moves only the shards that peer owned (each such
// shard falls to its second-ranked peer), and adding a peer steals only the
// shards it now wins — no global reshuffle, no ring to maintain.
func Rank(key string, peers []string) []string {
	ranked := make([]string, len(peers))
	copy(ranked, peers)
	w := make(map[string]uint64, len(peers))
	for _, p := range ranked {
		w[p] = weight(key, p)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if w[ranked[i]] != w[ranked[j]] {
			return w[ranked[i]] > w[ranked[j]]
		}
		return ranked[i] < ranked[j]
	})
	return ranked
}

// weight hashes one (key, peer) pair. FNV-1a over peer<NUL>key: cheap,
// stable across processes and Go versions (unlike maphash), and uniform
// enough for placement.
func weight(key, peer string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(peer))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return h.Sum64()
}
