package stream

import (
	"testing"
)

func TestProduceHHeadersRoundTrip(t *testing.T) {
	b := newSingleNode(t)
	if err := b.CreateTopic("frames", 2); err != nil {
		t.Fatal(err)
	}
	headers := map[string]string{"x-trace-id": "t-1", "x-span-id": "0", "camera": "cam-3"}
	if _, _, err := b.ProduceH("frames", "cam-3", []byte("payload"), headers); err != nil {
		t.Fatal(err)
	}
	// Mutating the producer's map after the fact must not corrupt the log.
	headers["x-trace-id"] = "tampered"
	delete(headers, "camera")

	recs, err := b.Poll("g", "frames", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("polled %d records", len(recs))
	}
	got := recs[0].Headers
	if got["x-trace-id"] != "t-1" || got["camera"] != "cam-3" {
		t.Fatalf("headers = %v, want the values at produce time", got)
	}
}

func TestProduceWithoutHeadersStaysNil(t *testing.T) {
	b := newSingleNode(t)
	if err := b.CreateTopic("plain", 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Produce("plain", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.ProduceH("plain", "k", []byte("v"), map[string]string{}); err != nil {
		t.Fatal(err)
	}
	recs, err := b.Poll("g", "plain", 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Headers != nil {
			t.Fatalf("headerless record allocated %v", r.Headers)
		}
	}
}
