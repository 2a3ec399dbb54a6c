// Package stream implements a partitioned, offset-addressed publish/subscribe
// log with consumer groups — the streaming backbone ("real-time data
// gathering" plus "streaming processing" in the paper's software layer) that
// connects collectors, storage, and the analysis servers in Fig. 4.
//
// The broker is an in-process simulation of a Kafka-style system: topics are
// split into partitions, records within a partition are totally ordered and
// addressed by offset, keys hash to partitions so per-key order is
// preserved, and consumer groups balance partitions across members with
// committed offsets. Cluster (cluster.go) is the one implementation: a
// replicated multi-node broker, which at one node and replication 1 is the
// plain single-node log.
package stream

import (
	"errors"
	"hash/fnv"
	"time"
)

// Sentinel errors.
var (
	ErrTopicExists  = errors.New("stream: topic already exists")
	ErrUnknownTopic = errors.New("stream: unknown topic")
	ErrBadPartition = errors.New("stream: partition out of range")
)

// Bus is the produce/poll surface the ingestion pipelines depend on.
// *Cluster implements it directly; the infrastructure wraps it once in a
// decorator that counts calls and injects faults, without the pipelines
// knowing.
type Bus interface {
	Produce(topicName, key string, value []byte) (partitionID int, offset int64, err error)
	// ProduceH is Produce with per-record headers — the metadata channel
	// that carries trace context (and other small annotations) across the
	// broker hop to whoever polls the record.
	ProduceH(topicName, key string, value []byte, headers map[string]string) (partitionID int, offset int64, err error)
	// Poll reads up to max records from the group's committed offsets
	// without committing: polling again before CommitPolled redelivers.
	Poll(groupName, topicName string, max int) ([]Record, error)
	// CommitPolled advances the group's committed offsets over what the
	// last Poll for this topic returned, completing the poll-then-commit
	// (at-least-once) flow.
	CommitPolled(groupName, topicName string) error
}

// Record is one message in a partition log. Topic, Partition and Offset are
// its address: the log stores the rest once and Poll fills them in.
type Record struct {
	Topic     string
	Partition int
	Offset    int64
	Key       string
	// Value and Headers are copied on produce, so later mutation by the
	// producer cannot corrupt the log; Headers carry per-record metadata end
	// to end.
	Value   []byte
	Headers map[string]string
	Time    time.Time
}

// partitionFor hashes a non-empty key to one of n partitions, so per-key
// order is preserved within a partition.
func partitionFor(key string, n int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}
