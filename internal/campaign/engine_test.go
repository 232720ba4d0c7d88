package campaign

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rowhammer/internal/dram"
	"rowhammer/internal/memsys"
)

// TestTransientModuleFailureNotCached pins the cache-poisoning fix: a
// module-allocation failure under a campaign that was elected template
// leader must fail only that campaign. Later campaigns of the same
// identity re-elect a leader and succeed — the transient error is never
// published into the profile cache.
func TestTransientModuleFailureNotCached(t *testing.T) {
	jobs := testFleet(t)
	want := make([]Result, len(jobs))
	for i, j := range jobs {
		want[i] = RunCampaign(i, j)
	}
	scrub(want)

	var calls atomic.Int64
	var pool systemPool
	cache := NewProfileCache()
	sum := Run(jobs, Config{
		Workers: 1, // deterministic: job 0 is the failing leader
		Cache:   cache,
		getSystem: func(g dram.Geometry, d dram.DeviceProfile, seed int64) (*memsys.System, error) {
			if calls.Add(1) == 1 {
				return nil, errors.New("injected ENOMEM")
			}
			return pool.get(g, d, seed)
		},
	})
	if sum.Failed != 1 {
		t.Fatalf("Failed = %d, want exactly the campaign whose leader hit the fault", sum.Failed)
	}
	r0 := sum.Results[0]
	if r0.Err == nil || !strings.Contains(r0.Err.Error(), "injected ENOMEM") {
		t.Fatalf("campaign 0 error = %v, want the injected allocation failure", r0.Err)
	}
	got := append([]Result(nil), sum.Results...)
	scrub(got)
	for i := 1; i < len(got); i++ {
		if got[i].Err != nil {
			t.Fatalf("campaign %d inherited the transient failure: %v", i, got[i].Err)
		}
		got[i].CacheHit = want[i].CacheHit
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("campaign %d differs from serial reference after leader retry", i)
		}
	}

	// The identity the failure hit must be warm now, not poisoned: a
	// second fleet over the same cache succeeds everywhere with zero new
	// templates.
	entries := cache.Entries()
	again := Run(jobs, Config{Workers: 2, Cache: cache})
	if again.Failed != 0 {
		t.Fatalf("warm rerun failed %d campaigns; the transient error was cached", again.Failed)
	}
	if cache.Entries() != entries {
		t.Fatalf("warm rerun templated again: %d entries, had %d", cache.Entries(), entries)
	}
}

// TestCacheAbortElectsNewLeader drives the single-flight protocol
// directly: a follower parked on an aborted entry wakes with transient
// set, re-begins, and becomes the next leader.
func TestCacheAbortElectsNewLeader(t *testing.T) {
	c := NewProfileCache()
	k := testFleet(t)[0].profileKey()

	e1, leader := c.begin(k)
	if !leader {
		t.Fatal("first begin was not leader")
	}
	type outcome struct {
		transient bool
		leader    bool
	}
	got := make(chan outcome, 1)
	began := make(chan struct{})
	go func() {
		e, l := c.begin(k) // e1 still owns the entry: always a follower here
		close(began)
		if l {
			got <- outcome{leader: true}
			return
		}
		if err := c.wait(context.Background(), e); err != nil {
			got <- outcome{}
			return
		}
		if !e.transient {
			got <- outcome{transient: false}
			return
		}
		// Protocol says: re-begin after a transient abort.
		_, l = c.begin(k)
		got <- outcome{transient: true, leader: l}
	}()
	<-began
	c.abort(e1, errors.New("transient"))

	o := <-got
	if !o.transient {
		t.Fatal("follower did not observe the transient abort")
	}
	if !o.leader {
		t.Fatal("follower's re-begin did not elect it leader")
	}
	if c.Entries() != 1 {
		t.Fatalf("cache holds %d entries after re-election, want the fresh leader's 1", c.Entries())
	}
}

// TestCancelledFollowerDoesNotBlock pins the daemon-critical liveness
// property: a follower whose context dies while the leader computes
// must return promptly with the context error, not block on ready.
func TestCancelledFollowerDoesNotBlock(t *testing.T) {
	c := NewProfileCache()
	k := testFleet(t)[0].profileKey()
	if _, leader := c.begin(k); !leader {
		t.Fatal("setup: expected leadership")
	}
	e, leader := c.begin(k)
	if leader {
		t.Fatal("setup: expected followership")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() { done <- c.wait(ctx, e) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("wait = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled follower still blocked on the leader")
	}
}

// TestCancellationUnwindsCleanly cancels a running fleet (with a tight
// arena cap so admission waiters are parked too) and asserts: the run
// returns, unfinished campaigns carry the context error and are never
// streamed, and no engine goroutine outlives the call. Run under -race
// this doubles as the concurrency regression test for the teardown
// paths.
func TestCancellationUnwindsCleanly(t *testing.T) {
	jobs := testFleet(t)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	var streamed []int
	var mu sync.Mutex
	sum := RunContext(ctx, jobs, Config{
		Workers:       4,
		MaxArenaBytes: 4 << 20, // serialize admission: someone is always parked
		OnResult: func(r Result) {
			mu.Lock()
			streamed = append(streamed, r.Index)
			mu.Unlock()
			cancel() // first completion kills the fleet
		},
	})

	unfinished := 0
	streamedSet := map[int]bool{}
	for _, i := range streamed {
		streamedSet[i] = true
	}
	for _, r := range sum.Results {
		if errors.Is(r.Err, context.Canceled) {
			unfinished++
			if streamedSet[r.Index] {
				t.Fatalf("campaign %d was streamed AND marked unfinished", r.Index)
			}
		}
	}
	if unfinished == 0 {
		t.Fatal("cancellation finished every campaign; the test exercised nothing")
	}
	if unfinished != sum.Failed-countNonCancelFailures(sum.Results) {
		t.Fatalf("unfinished = %d not reflected in Failed = %d", unfinished, sum.Failed)
	}

	// Every engine goroutine must be gone: workers, admission waiters,
	// cache followers. Allow the runtime a moment to retire them.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines outlive the cancelled run (baseline %d)", n, baseline)
	}
}

func countNonCancelFailures(rs []Result) int {
	n := 0
	for _, r := range rs {
		if r.Err != nil && !errors.Is(r.Err, context.Canceled) {
			n++
		}
	}
	return n
}

// TestBoundedCacheEvictsAndPreservesResults runs a fleet through a
// one-entry cache: the LRU bound must actually evict, and — by the
// determinism invariant — re-templating evicted identities must not
// change a byte of output relative to the unbounded run.
func TestBoundedCacheEvictsAndPreservesResults(t *testing.T) {
	jobs := testFleet(t)
	free := Run(jobs, Config{Workers: 2})
	if free.Failed != 0 {
		t.Fatalf("unbounded run failed %d", free.Failed)
	}

	small := NewProfileCacheSize(1)
	bounded := Run(jobs, Config{Workers: 2, Cache: small})
	if bounded.Failed != 0 {
		t.Fatalf("bounded run failed %d", bounded.Failed)
	}
	if small.Evicted() == 0 {
		t.Fatal("one-entry cache over a two-identity fleet never evicted")
	}
	if n := small.Entries(); n > 1 {
		t.Fatalf("bounded cache holds %d entries, bound is 1", n)
	}

	fr := append([]Result(nil), free.Results...)
	br := append([]Result(nil), bounded.Results...)
	scrub(fr)
	scrub(br)
	if !reflect.DeepEqual(fr, br) {
		t.Fatal("eviction changed campaign results")
	}
}

// TestResultJSONRoundTrip pins the wire format: a full successful
// Result and a failed one survive Marshal → Unmarshal with every
// deterministic field intact and the error degraded to its message.
func TestResultJSONRoundTrip(t *testing.T) {
	jobs := testFleet(t)[:1]
	ok := RunCampaign(0, jobs[0])
	if ok.Err != nil {
		t.Fatal(ok.Err)
	}
	bad := Result{Index: 3, Name: "x", SKU: "F1/16MB", Err: fmt.Errorf("wrapped: %w", errors.New("boom"))}

	for _, r := range []Result{ok, bad} {
		b, err := r.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back Result
		if err := back.UnmarshalJSON(b); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		// The wire form must be a fixed point: marshaling the decoded
		// result reproduces the original bytes.
		b2, err := back.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != string(b2) {
			t.Fatal("second marshal differs from first; wire form is not stable")
		}
		if r.Err != nil {
			if back.Err == nil || back.Err.Error() != r.Err.Error() {
				t.Fatalf("error round-tripped to %v, want message %q", back.Err, r.Err.Error())
			}
			r.Err, back.Err = nil, nil
		}
		if !reflect.DeepEqual(r, back) {
			t.Fatal("result changed across JSON round trip")
		}
	}
}
