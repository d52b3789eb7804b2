package crowd

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// refBatch is the resilient adapter's bookkeeping as it was before the
// owed counts: the expected task multiset and the accepted answers, with
// maps rebuilt from both on every accept and missing call. It is the
// reference FuzzResilientBookkeeping checks the adapter against.
type refBatch struct {
	tasks   []Task
	answers []Answer
}

// refAccept merges valid answers into the batch, capped by the expected
// task multiset, and returns the quarantine messages in order.
func refAccept(b *refBatch, answers []Answer) []string {
	var quarantined []string
	need := make(map[pairKey]int, len(b.tasks))
	for _, t := range b.tasks {
		need[keyOf(t.I, t.J)]++
	}
	for _, a := range b.answers {
		need[keyOf(a.Task.I, a.Task.J)]--
	}
	for _, a := range answers {
		k := keyOf(a.Task.I, a.Task.J)
		n, expected := need[k]
		if _, okv := validPairAnswer(a, a.Task.I, a.Task.J); !okv || !expected || a.Task.I == a.Task.J {
			quarantined = append(quarantined,
				fmt.Sprintf("invalid answer: task (%d,%d) value %v", a.Task.I, a.Task.J, a.Value))
			continue
		}
		if n <= 0 {
			quarantined = append(quarantined,
				fmt.Sprintf("surplus answer: task (%d,%d)", a.Task.I, a.Task.J))
			continue
		}
		need[k] = n - 1
		b.answers = append(b.answers, a)
	}
	return quarantined
}

// refMissing returns the tasks not yet covered by accepted answers.
func refMissing(b *refBatch) []Task {
	have := make(map[pairKey]int, len(b.tasks))
	for _, a := range b.answers {
		have[keyOf(a.Task.I, a.Task.J)]++
	}
	var out []Task
	for _, t := range b.tasks {
		k := keyOf(t.I, t.J)
		if have[k] > 0 {
			have[k]--
			continue
		}
		out = append(out, t)
	}
	return out
}

var (
	errFuzzPost    = errors.New("fuzz: post refused")
	errFuzzCollect = errors.New("fuzz: collect failed")
)

// fuzzStep is one call the adapter made on the fuzz platform.
type fuzzStep struct {
	post    bool
	tasks   []Task   // posted tasks (post steps)
	answers []Answer // delivered answers (collect steps)
	err     error
}

// fuzzPlatform answers from a byte script: each Post may be refused,
// each Collect may fail, and each posted task may be dropped, answered,
// flipped, duplicated, mis-paired, or answered with NaN or an
// out-of-range value. Past the script's end it behaves perfectly. It
// logs every call so the reference can replay them.
type fuzzPlatform struct {
	script  []byte
	items   int
	batches map[int][]Task
	next    int
	steps   []fuzzStep
}

func (p *fuzzPlatform) byte() (byte, bool) {
	if len(p.script) == 0 {
		return 0, false
	}
	b := p.script[0]
	p.script = p.script[1:]
	return b, true
}

func (p *fuzzPlatform) Post(tasks []Task) (int, error) {
	step := fuzzStep{post: true, tasks: append([]Task(nil), tasks...)}
	if b, ok := p.byte(); ok && b%5 == 0 {
		step.err = errFuzzPost
	}
	p.steps = append(p.steps, step)
	if step.err != nil {
		return 0, step.err
	}
	id := p.next
	p.next++
	p.batches[id] = step.tasks
	return id, nil
}

func (p *fuzzPlatform) Collect(batch int) ([]Answer, error) {
	tasks, ok := p.batches[batch]
	if !ok {
		return nil, fmt.Errorf("fuzz: unknown batch %d", batch)
	}
	delete(p.batches, batch)
	var out []Answer
	var err error
	if b, ok := p.byte(); ok && b%6 == 0 {
		err = errFuzzCollect
	}
	for _, t := range tasks {
		op, ok := p.byte()
		if !ok {
			out = append(out, Answer{Task: t, Value: 0.25})
			continue
		}
		vb, _ := p.byte()
		v := float64(int(vb)-128) / 128
		switch op % 8 {
		case 0: // dropped
		case 1, 7:
			out = append(out, Answer{Task: t, Value: v})
		case 2: // reported in flipped orientation
			out = append(out, Answer{Task: Task{I: t.J, J: t.I}, Value: -v})
		case 3: // duplicated
			out = append(out, Answer{Task: t, Value: v}, Answer{Task: t, Value: v})
		case 4: // mis-paired: may land on another pair of the batch, or on I == J
			out = append(out, Answer{Task: Task{I: t.I, J: (t.J + 1 + int(vb)%2) % p.items}, Value: v})
		case 5:
			out = append(out, Answer{Task: t, Value: math.NaN()})
		case 6:
			out = append(out, Answer{Task: t, Value: 1 + float64(vb+1)/256})
		}
	}
	if err != nil && len(out) > 0 {
		out = out[:len(out)/2] // a collection failing midway
	}
	p.steps = append(p.steps, fuzzStep{answers: out, err: err})
	return out, err
}

// fuzzBatch decodes 1–3 distinct pairs over five items and a task
// multiset of up to ten tasks over them in mixed orientation.
func fuzzBatch(data []byte) (tasks []Task, maxAttempts int, rest []byte) {
	get := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	const items = 5
	pairs := make([]Task, 1+get()%3)
	for x := range pairs {
		i := get() % items
		pairs[x] = Task{I: i, J: (i + 1 + get()%(items-1)) % items}
	}
	n := 1 + get()%10
	for t := 0; t < n; t++ {
		b := get()
		task := pairs[b%len(pairs)]
		if b&8 != 0 {
			task = Task{I: task.J, J: task.I}
		}
		tasks = append(tasks, task)
	}
	return tasks, 1 + get()%4, data
}

// FuzzResilientBookkeeping checks the adapter's owed-count bookkeeping
// against the map-based reference above: for any task multiset and any
// script of refused posts, failed collects and malformed answers, the
// accepted answers, the failure events (kind, missing count and message,
// in order) and every re-posted task list must match.
func FuzzResilientBookkeeping(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 1, 5, 9, 1, 3, 2, 1, 1, 9, 3, 3, 1, 0, 9, 0, 9})
	f.Add([]byte{2, 0, 0, 3, 2, 7, 9, 10, 11, 12, 13, 14, 3, 1, 1, 4, 200, 5, 0, 6, 9, 2, 40})
	f.Add([]byte{2, 1, 2, 2, 1, 4, 1, 9, 17, 25, 2, 8, 3, 0, 7, 0, 4, 1, 4, 0, 3, 3, 1, 1})
	f.Add([]byte{1, 4, 3, 0, 5, 8, 3, 5, 6, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		tasks, maxAttempts, script := fuzzBatch(data)
		fp := &fuzzPlatform{script: script, items: 5, batches: map[int][]Task{}}
		rp := NewResilientPlatform(fp, RetryPolicy{
			MaxAttempts: maxAttempts, FailureThreshold: 1 << 20,
			FailureLogLimit: -1, Sleep: noSleep,
		})
		id, err := rp.Post(tasks)
		if err != nil {
			t.Fatalf("Post: %v", err)
		}
		got, collectErr := rp.Collect(id)

		// Replay the platform's log through the reference.
		type event struct {
			Kind    string
			Missing int
			Err     string
		}
		ref := &refBatch{tasks: tasks}
		var want []event
		var lastErr error
		for s, step := range fp.steps {
			if step.post {
				wantTasks := tasks
				if s > 0 {
					wantTasks = refMissing(ref)
				}
				if !reflect.DeepEqual(step.tasks, wantTasks) {
					t.Fatalf("step %d posted %v, reference owes %v", s, step.tasks, wantTasks)
				}
				if step.err != nil {
					want = append(want, event{"post-error", len(step.tasks), step.err.Error()})
					if s > 0 {
						lastErr = step.err
					}
				}
				continue
			}
			if step.err != nil {
				want = append(want, event{"collect-error", len(refMissing(ref)), step.err.Error()})
				lastErr = step.err
			} else {
				for _, msg := range refAccept(ref, step.answers) {
					want = append(want, event{"quarantine", 0, msg})
				}
			}
			if m := len(refMissing(ref)); m > 0 && step.err == nil {
				want = append(want, event{"partial", m, ""})
			}
		}
		owed := len(refMissing(ref))
		if owed > 0 {
			want = append(want, event{"exhausted", owed, errText(lastErr)})
		}

		if len(got)+len(ref.answers) > 0 && !reflect.DeepEqual(got, ref.answers) {
			t.Fatalf("accepted answers:\n got %v\nwant %v", got, ref.answers)
		}
		if (collectErr == nil) != (owed == 0) {
			t.Fatalf("Collect error %v with %d tasks owed", collectErr, owed)
		}
		var events []event
		for _, ev := range rp.Failures() {
			events = append(events, event{ev.Kind, ev.Missing, ev.Err})
		}
		if !reflect.DeepEqual(events, want) {
			t.Fatalf("failure events:\n got %v\nwant %v", events, want)
		}
	})
}
