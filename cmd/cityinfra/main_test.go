package main

import (
	"strings"
	"testing"
)

// TestRun boots the stack and ingests a small month of data in each
// non-blocking mode; -serve is left out because it blocks until killed.
func TestRun(t *testing.T) {
	for _, extra := range []string{"", "-chaos 0.1", "-watch -watch-frames 2 -watch-interval 0"} {
		t.Run("flags="+extra, func(t *testing.T) {
			args := append(strings.Fields("-tweets 200 -waze 50 -calls 50"), strings.Fields(extra)...)
			if err := run(args); err != nil {
				t.Fatal(err)
			}
		})
	}
}
