package crowd

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// drawHeavyOracle consumes a task-dependent number of draws per answer —
// up to past the 607-word register wrap — so a generator that diverges
// from math/rand anywhere in its stream changes some answer.
type drawHeavyOracle struct{ n int }

func (o drawHeavyOracle) NumItems() int { return o.n }

func (o drawHeavyOracle) Preference(rng *rand.Rand, i, j int) float64 {
	v := rng.NormFloat64()
	for k := rng.Intn(700); k > 0; k-- {
		v += rng.Float64() - 0.5
	}
	return v + float64(i-j)
}

// TestSimPlatformAnswersGolden pins SimPlatform's answers to the
// per-task construction it has always used — a fresh
// rand.New(rand.NewSource(seed+batch+t·7919)) for task t of batch — at
// worker counts below, equal to and above the batch sizes.
func TestSimPlatformAnswersGolden(t *testing.T) {
	base := drawHeavyOracle{n: 12}
	const seed = 41
	for _, workers := range []int{1, 3, 8, 64} {
		sp := NewSimPlatform(base, workers, seed)
		for batch, size := range []int{1, 2, 5, 8, 30, 97} {
			tasks := make([]Task, size)
			for k := range tasks {
				tasks[k] = Task{I: k % 5, J: 5 + k%7}
			}
			id, err := sp.Post(tasks)
			if err != nil {
				t.Fatal(err)
			}
			if id != batch {
				t.Fatalf("batch id %d, want %d", id, batch)
			}
			got, err := sp.Collect(id)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != size {
				t.Fatalf("workers %d batch %d: %d answers, want %d", workers, batch, len(got), size)
			}
			for k, task := range tasks {
				rng := rand.New(rand.NewSource(seed + int64(id) + int64(k)*7919))
				want := Answer{Task: task, Value: base.Preference(rng, task.I, task.J)}
				if got[k] != want {
					t.Fatalf("workers %d batch %d task %d: %+v, want %+v", workers, batch, k, got[k], want)
				}
			}
		}
		sp.Close()
	}
}

// TestSimPlatformConcurrentBatchesGolden posts batches from several
// goroutines at once: whatever ids the interleaving hands out, each
// answer must still come from its own task's stream.
func TestSimPlatformConcurrentBatchesGolden(t *testing.T) {
	base := drawHeavyOracle{n: 12}
	const seed = 7
	sp := NewSimPlatform(base, 3, seed)
	defer sp.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				tasks := make([]Task, 1+(g*5+r)%11)
				for k := range tasks {
					tasks[k] = Task{I: g % 5, J: 5 + (k+r)%7}
				}
				id, err := sp.Post(tasks)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := sp.Collect(id)
				if err != nil {
					t.Error(err)
					return
				}
				for k, task := range tasks {
					rng := rand.New(rand.NewSource(seed + int64(id) + int64(k)*7919))
					if want := base.Preference(rng, task.I, task.J); k >= len(got) || got[k].Value != want {
						t.Errorf("batch %d task %d: got %v, want %v", id, k, got, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// gateOracle blocks every answer until release is closed, announcing
// each start on started.
type gateOracle struct {
	drawHeavyOracle
	started chan struct{}
	release chan struct{}
}

func (o gateOracle) Preference(rng *rand.Rand, i, j int) float64 {
	o.started <- struct{}{}
	<-o.release
	return o.drawHeavyOracle.Preference(rng, i, j)
}

// TestSimPlatformCloseStopsAtTaskGranularity closes the platform while
// both workers are mid-task: they finish those two tasks, start no
// other, and the batch delivers exactly the two answers.
func TestSimPlatformCloseStopsAtTaskGranularity(t *testing.T) {
	base := gateOracle{drawHeavyOracle{n: 12}, make(chan struct{}, 100), make(chan struct{})}
	sp := NewSimPlatform(base, 2, 5)
	tasks := make([]Task, 100)
	for k := range tasks {
		tasks[k] = Task{I: 0, J: 1 + k%11}
	}
	id, err := sp.Post(tasks)
	if err != nil {
		t.Fatal(err)
	}
	sp.mu.Lock()
	done := sp.batches[id]
	sp.mu.Unlock()
	<-base.started
	<-base.started
	closed := make(chan struct{})
	go func() {
		sp.Close()
		close(closed)
	}()
	for !sp.isClosed() {
		time.Sleep(time.Millisecond)
	}
	close(base.release)
	<-closed
	if n := len(base.started); n != 0 {
		t.Fatalf("%d tasks started after Close", n)
	}
	got := <-done
	if len(got) != 2 {
		t.Fatalf("closed batch delivered %d answers, want the 2 in flight", len(got))
	}
	for k, a := range got {
		rng := rand.New(rand.NewSource(5 + int64(id) + int64(k)*7919))
		if want := base.drawHeavyOracle.Preference(rng, tasks[k].I, tasks[k].J); a.Task != tasks[k] || a.Value != want {
			t.Fatalf("answer %d: %+v, want task %v value %v", k, a, tasks[k], want)
		}
	}
	if n := sp.PendingBatches(); n != 0 {
		t.Fatalf("%d batches pending after Close", n)
	}
	if _, err := sp.Post(tasks[:1]); err != ErrPlatformClosed {
		t.Fatalf("post after Close: %v, want ErrPlatformClosed", err)
	}
}

// TestSimPlatformAllocsPerBatch bounds Post+Collect allocations by the
// worker count: a per-microtask allocation (a generator, a goroutine
// closure) would scale with the 512-task batch and trip the bound.
func TestSimPlatformAllocsPerBatch(t *testing.T) {
	const workers, size = 4, 512
	sp := NewSimPlatform(gaussOracle{n: 10, sigma: 0.2}, workers, 3)
	defer sp.Close()
	tasks := make([]Task, size)
	for k := range tasks {
		tasks[k] = Task{I: 1, J: 2}
	}
	allocs := testing.AllocsPerRun(50, func() {
		id, err := sp.Post(tasks)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sp.Collect(id); err != nil {
			t.Fatal(err)
		}
	})
	// Batch bookkeeping (answers, channel, batch state, map entry) plus
	// one goroutine start per worker, with slack for pool refills after a
	// GC cycle.
	if limit := float64(4*workers + 16); allocs > limit {
		t.Fatalf("Post+Collect of %d tasks: %.1f allocs, want <= %.0f", size, allocs, limit)
	}
}

// TestResilientBackoffSequenceGolden pins the jittered backoff delays
// (recorded from the eagerly seeded jitter stream the adapter used to
// build at every Post) so building the stream on the first backoff
// cannot shift a delay.
func TestResilientBackoffSequenceGolden(t *testing.T) {
	golden := map[int64][]time.Duration{
		0: {8023301, 19405090, 33291201, 28754283, 5267609, 16816401,
			33740740, 24291745, 8107578, 15214193, 32597304, 29787921},
		7: {9594460, 12315071, 24827751, 38231243, 7311746, 11027702,
			25373446, 23728836, 9526468, 18498140, 24306542, 29577739},
	}
	for js, want := range golden {
		var got []time.Duration
		inner := newScriptPlatform()
		for i := 0; i < 64; i++ {
			inner.steps = append(inner.steps, scriptStep{serve: 0})
		}
		rp := NewResilientPlatform(inner, RetryPolicy{
			MaxAttempts: 5, FailureThreshold: 100, JitterSeed: js,
			BaseBackoff: 10 * time.Millisecond, MaxBackoff: 40 * time.Millisecond,
			Sleep: func(d time.Duration) { got = append(got, d) },
		})
		for b := 0; b < 3; b++ {
			id, _ := rp.Post(tasksFor(2))
			if _, err := rp.Collect(id); err == nil {
				t.Fatalf("jitter seed %d batch %d: collect succeeded against a silent platform", js, b)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("jitter seed %d: %d sleeps, want %d", js, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("jitter seed %d sleep %d: %d ns, want %d ns", js, i, got[i], want[i])
			}
		}
	}
}
