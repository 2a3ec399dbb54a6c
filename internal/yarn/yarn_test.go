package yarn

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func newRM(t *testing.T, nodes int, perNode Resources) *ResourceManager {
	t.Helper()
	rm := NewResourceManager()
	for i := 0; i < nodes; i++ {
		if err := rm.AddNode(string(rune('a'+i)), perNode); err != nil {
			t.Fatal(err)
		}
	}
	return rm
}

func mustGrant(t *testing.T, ch <-chan ContainerID) ContainerID {
	t.Helper()
	select {
	case id := <-ch:
		return id
	case <-time.After(time.Second):
		t.Fatal("container not granted in time")
		return 0
	}
}

// mustGrantNow requires a grant made during the Request call itself.
func mustGrantNow(t *testing.T, ch <-chan ContainerID) ContainerID {
	t.Helper()
	select {
	case id := <-ch:
		return id
	default:
		t.Fatal("request not granted at once")
		return 0
	}
}

func assertNotGranted(t *testing.T, ch <-chan ContainerID) {
	t.Helper()
	select {
	case id := <-ch:
		t.Fatalf("unexpected grant %d", id)
	default:
	}
}

func TestImmediateGrant(t *testing.T) {
	rm := newRM(t, 2, Resources{Cores: 4, MemMB: 4096})
	app := rm.Submit("spark")
	ch, err := rm.Request(app, Resources{Cores: 2, MemMB: 1024})
	if err != nil {
		t.Fatal(err)
	}
	id := mustGrant(t, ch)
	if rm.Running() != 1 || rm.Pending() != 0 {
		t.Fatalf("running = %d, pending = %d", rm.Running(), rm.Pending())
	}
	if err := rm.Release(id); err != nil {
		t.Fatal(err)
	}
	if rm.Running() != 0 {
		t.Fatalf("running after release = %d", rm.Running())
	}
	// The release returned every core and megabyte: both whole nodes are
	// granted at once.
	for i := 0; i < 2; i++ {
		ch, err := rm.Request(app, Resources{Cores: 4, MemMB: 4096})
		if err != nil {
			t.Fatal(err)
		}
		mustGrantNow(t, ch)
	}
}

func TestQueuesWhenFullThenGrantsOnRelease(t *testing.T) {
	rm := newRM(t, 1, Resources{Cores: 2, MemMB: 2048})
	app := rm.Submit("a")
	ch1, err := rm.Request(app, Resources{Cores: 2, MemMB: 1024})
	if err != nil {
		t.Fatal(err)
	}
	c1 := mustGrant(t, ch1)
	ch2, err := rm.Request(app, Resources{Cores: 2, MemMB: 1024})
	if err != nil {
		t.Fatal(err)
	}
	assertNotGranted(t, ch2)
	if rm.Pending() != 1 {
		t.Fatalf("pending = %d", rm.Pending())
	}
	if err := rm.Release(c1); err != nil {
		t.Fatal(err)
	}
	mustGrant(t, ch2)
	if rm.Pending() != 0 {
		t.Fatalf("pending after release = %d", rm.Pending())
	}
}

func TestRequestExceedingAnyNodeFails(t *testing.T) {
	rm := newRM(t, 3, Resources{Cores: 4, MemMB: 1024})
	app := rm.Submit("a")
	if _, err := rm.Request(app, Resources{Cores: 8, MemMB: 512}); !errors.Is(err, ErrOverCapacity) {
		t.Fatalf("err = %v", err)
	}
	if _, err := rm.Request(99, Resources{Cores: 1}); !errors.Is(err, ErrNoApplication) {
		t.Fatalf("err = %v", err)
	}
}

func TestFIFOHeadOfLineBlocks(t *testing.T) {
	rm := newRM(t, 1, Resources{Cores: 4, MemMB: 4096})
	app := rm.Submit("a")
	first, err := rm.Request(app, Resources{Cores: 2, MemMB: 1024})
	if err != nil {
		t.Fatal(err)
	}
	c1 := mustGrantNow(t, first)
	// The head wants the whole node; the small request behind it would fit
	// the 2 free cores but must wait its turn.
	whole, err := rm.Request(app, Resources{Cores: 4, MemMB: 4096})
	if err != nil {
		t.Fatal(err)
	}
	small, err := rm.Request(app, Resources{Cores: 1, MemMB: 128})
	if err != nil {
		t.Fatal(err)
	}
	assertNotGranted(t, whole)
	assertNotGranted(t, small)
	if rm.Pending() != 2 || rm.Running() != 1 {
		t.Fatalf("pending = %d, running = %d", rm.Pending(), rm.Running())
	}
	if err := rm.Release(c1); err != nil {
		t.Fatal(err)
	}
	c2 := mustGrantNow(t, whole)
	assertNotGranted(t, small)
	if err := rm.Release(c2); err != nil {
		t.Fatal(err)
	}
	mustGrantNow(t, small)
	if rm.Pending() != 0 || rm.Running() != 1 {
		t.Fatalf("pending = %d, running = %d", rm.Pending(), rm.Running())
	}
}

func TestBestFitPacksFullestNode(t *testing.T) {
	rm := NewResourceManager()
	for id, cores := range map[string]int{"a": 8, "b": 4, "c": 6} {
		if err := rm.AddNode(id, Resources{Cores: cores, MemMB: 8192}); err != nil {
			t.Fatal(err)
		}
	}
	app := rm.Submit("a")
	for _, tc := range []struct {
		cores int
		want  string
	}{
		{3, "b"}, // b has the fewest free cores (4) that fit 3
		{1, "b"}, // b now has 1 free: the tightest fit
		{5, "c"}, // b is full; c (6) is tighter than a (8)
		{2, "a"}, // c has 1 free, too little; a is the only fit
		{1, "c"}, // c's last core is tighter than a's 6
	} {
		ch, err := rm.Request(app, Resources{Cores: tc.cores, MemMB: 128})
		if err != nil {
			t.Fatal(err)
		}
		id := mustGrantNow(t, ch)
		rm.mu.Lock()
		got := rm.containers[id].NodeID
		rm.mu.Unlock()
		if got != tc.want {
			t.Fatalf("%d cores placed on %s, want %s", tc.cores, got, tc.want)
		}
	}
}

func TestReleaseUnknownContainer(t *testing.T) {
	rm := newRM(t, 1, Resources{Cores: 1, MemMB: 128})
	if err := rm.Release(42); !errors.Is(err, ErrNoContainer) {
		t.Fatalf("err = %v", err)
	}
}

func TestTotalCapacity(t *testing.T) {
	rm := newRM(t, 3, Resources{Cores: 2, MemMB: 100})
	total := rm.TotalCapacity()
	if total.Cores != 6 || total.MemMB != 300 {
		t.Fatalf("total = %+v", total)
	}
}

func TestAddNodeDuplicate(t *testing.T) {
	rm := newRM(t, 1, Resources{Cores: 1, MemMB: 1})
	if err := rm.AddNode("a", Resources{Cores: 1, MemMB: 1}); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("err = %v", err)
	}
}

// TestConcurrentRequestsNeverExceedCapacity hammers the scheduler from many
// goroutines and verifies the core invariant: the sum of granted resources
// never exceeds cluster capacity, and all accounting returns to zero.
func TestConcurrentRequestsNeverExceedCapacity(t *testing.T) {
	rm := newRM(t, 3, Resources{Cores: 4, MemMB: 4096})
	app := rm.Submit("stress")
	const workers = 16
	const perWorker = 20
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < perWorker; i++ {
				ch, err := rm.Request(app, Resources{Cores: 1, MemMB: 256})
				if err != nil {
					errs <- err
					return
				}
				id := <-ch
				if rm.Running() > 12 { // 3 nodes × 4 cores at 1 core each
					errs <- fmt.Errorf("overcommit: %d running", rm.Running())
					return
				}
				if err := rm.Release(id); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if rm.Running() != 0 || rm.Pending() != 0 {
		t.Fatalf("leaked state: running=%d pending=%d", rm.Running(), rm.Pending())
	}
	// Every release returned its share: all three whole nodes are granted
	// at once.
	for i := 0; i < 3; i++ {
		ch, err := rm.Request(app, Resources{Cores: 4, MemMB: 4096})
		if err != nil {
			t.Fatal(err)
		}
		mustGrantNow(t, ch)
	}
	if rm.Running() != 3 || rm.Pending() != 0 {
		t.Fatalf("after whole-node requests: running=%d pending=%d", rm.Running(), rm.Pending())
	}
}
