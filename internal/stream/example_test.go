package stream_test

import (
	"fmt"

	"repro/internal/stream"
)

// Example demonstrates the broker's produce/consume cycle with a consumer
// group, the pattern every collector→storage hop in the pipeline uses.
func Example() {
	broker, err := stream.NewCluster(stream.ClusterConfig{Nodes: 1, Replication: 1})
	if err != nil {
		fmt.Println("boot:", err)
		return
	}
	if err := broker.CreateTopic("tweets", 2); err != nil {
		fmt.Println("create:", err)
		return
	}
	for _, text := range []string{"gunshots on plank rd", "traffic fine on i-10"} {
		if _, _, err := broker.Produce("tweets", "collector-1", []byte(text)); err != nil {
			fmt.Println("produce:", err)
			return
		}
	}
	records, err := broker.Poll("storage-tier", "tweets", 10)
	if err != nil {
		fmt.Println("poll:", err)
		return
	}
	for _, r := range records {
		fmt.Println(string(r.Value))
	}
	// The batch is handled; committing is what moves the group forward.
	if err := broker.CommitPolled("storage-tier", "tweets"); err != nil {
		fmt.Println("commit:", err)
		return
	}
	lag, _ := broker.Lag("storage-tier", "tweets")
	fmt.Println("remaining lag:", lag)
	// Output:
	// gunshots on plank rd
	// traffic fine on i-10
	// remaining lag: 0
}
