package main

import (
	"fmt"
	"strings"

	"reach/lib"
)

func main() {
	var d lib.Dataset
	c := &lib.Counter{}
	inc := c.Inc
	inc()
	var s lib.Shape = lib.Square{Side: 2}
	var b lib.Box[int]
	var st lib.Step = lib.Move{}
	opts := lib.Options{Shortcut: 1}
	var cfg lib.Config
	fmt.Println(strings.Join([]string{"a", "b"}, ","), d, s.Area(), b.Get(), st, opts.Shortcut, cfg)
	lib.NewLedger().Add("x", 1)
	lib.Print(lib.Count(1, 2))
	lib.SortJobs([]lib.Job{{Prio: 2}, {Prio: 1}})
	fmt.Println(lib.Next(3, 1, 2))
}
