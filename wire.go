package headroom

// Aggregator serialization, for callers that move a shard's samples between
// processes (capserved moves its pools' rows instead): the codec preserves
// every float64 bit and the accumulator layout exactly, so merging decoded
// shards is indistinguishable from aggregating them in a single process.

import (
	"errors"

	"headroom/internal/metrics"
)

// EncodeAggregator serializes an aggregator's accumulated state into the
// compact binary wire format. The encoding is exact (float64 bit patterns are
// preserved) and deterministic (equal aggregators encode to equal bytes).
func EncodeAggregator(a *Aggregator) ([]byte, error) {
	if a == nil {
		return nil, errors.New("headroom: EncodeAggregator(nil)")
	}
	return a.MarshalBinary()
}

// DecodeAggregator reconstructs an aggregator encoded by EncodeAggregator.
// Merging the result is bit-identical to merging the original.
func DecodeAggregator(data []byte) (*Aggregator, error) {
	a := metrics.NewAggregator()
	if err := a.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return a, nil
}
