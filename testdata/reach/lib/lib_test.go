package lib

import "testing"

func TestViaTest(t *testing.T) {
	l := NewLedger()
	l.Add("a", 2)
	if l.viaTest != 2 {
		t.Fatal(l.viaTest)
	}
}
