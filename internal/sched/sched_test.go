package sched

import (
	"errors"
	"strings"
	"testing"
	"time"

	"edm/internal/sim"
)

func TestParseClass(t *testing.T) {
	cases := []struct {
		in      string
		want    Class
		wantErr bool
	}{
		{"", Normal, false},
		{"normal", Normal, false},
		{"Normal", Normal, false},
		{"  batch ", Batch, false},
		{"batch", Batch, false},
		{"interactive", Interactive, false},
		{"INTERACTIVE", Interactive, false},
		{"urgent", Normal, true},
		{"0", Normal, true},
	}
	for _, tc := range cases {
		got, err := ParseClass(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("ParseClass(%q): err=%v, wantErr=%v", tc.in, err, tc.wantErr)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("ParseClass(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestClassString(t *testing.T) {
	for _, c := range Classes() {
		parsed, err := ParseClass(c.String())
		if err != nil || parsed != c {
			t.Errorf("round-trip %v: parsed=%v err=%v", c, parsed, err)
		}
	}
}

// drainOrder submits the given (id, class, tenant) triples and pops
// them all, returning the ids in dequeue order.
func drainOrder(t *testing.T, s *Scheduler, subs [][3]string) []string {
	t.Helper()
	for _, sub := range subs {
		class, err := ParseClass(sub[1])
		if err != nil {
			t.Fatalf("ParseClass(%q): %v", sub[1], err)
		}
		if _, err := s.Submit(sub[0], class, sub[2], 0, nil); err != nil {
			t.Fatalf("Submit(%q): %v", sub[0], err)
		}
	}
	var order []string
	for range subs {
		tk := s.Next()
		if tk == nil {
			t.Fatal("Next returned nil with work queued")
		}
		order = append(order, tk.ID())
		s.Finish(tk)
	}
	return order
}

func TestPriorityOrdering(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 16})
	order := drainOrder(t, s, [][3]string{
		{"b1", "batch", ""},
		{"n1", "normal", ""},
		{"i1", "interactive", ""},
		{"b2", "batch", ""},
		{"i2", "interactive", ""},
	})
	want := []string{"i1", "i2", "n1", "b1", "b2"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("dequeue order = %v, want %v", order, want)
	}
}

func TestFairSharePrefersLeastUsage(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 16})
	// Seed both tenants as known, with a far ahead of b.
	s.mu.Lock()
	s.usage["a"] = 100
	s.usage["b"] = 1
	s.mu.Unlock()
	order := drainOrder(t, s, [][3]string{
		{"a1", "normal", "a"},
		{"b1", "normal", "b"},
		{"b2", "normal", "b"},
		{"a2", "normal", "a"},
	})
	// b (usage 1) is served before a (usage 100); Finish charges ~0s so
	// the imbalance persists across the drain.
	want := []string{"b1", "b2", "a1", "a2"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("dequeue order = %v, want %v", order, want)
	}
}

func TestNewTenantFlooredToMinActive(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 16})
	s.mu.Lock()
	s.usage["old"] = 50
	s.mu.Unlock()
	if _, err := s.Submit("o1", Normal, "old", 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("n1", Normal, "newbie", 0, nil); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	got := s.usage["newbie"]
	s.mu.Unlock()
	if got != 50 {
		t.Fatalf("new tenant usage floored to %v, want 50", got)
	}
}

func TestQueueFull(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2, ShedFraction: 1})
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(string(rune('a'+i)), Normal, "", 0, nil); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	_, err := s.Submit("c", Normal, "", 0, nil)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("err %T not a *RejectError", err)
	}
}

func TestBatchShedding(t *testing.T) {
	// Depth 4, shed at 0.5: once 2 tickets are queued, batch is shed
	// but normal and interactive still get in.
	s := New(Config{Workers: 1, QueueDepth: 4, ShedFraction: 0.5})
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(string(rune('a'+i)), Normal, "", 0, nil); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := s.Submit("b1", Batch, "", 0, nil); !errors.Is(err, ErrShed) {
		t.Fatalf("batch err = %v, want ErrShed", err)
	}
	if _, err := s.Submit("n3", Normal, "", 0, nil); err != nil {
		t.Fatalf("normal should still be admitted: %v", err)
	}
	if _, err := s.Submit("i1", Interactive, "", 0, nil); err != nil {
		t.Fatalf("interactive should still be admitted: %v", err)
	}
	if got := s.QueuedTotal(); got != 4 {
		t.Fatalf("queued = %d, want 4", got)
	}
}

func TestMaxWaitRejection(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 16})
	// No observations yet: estimate is zero, everything is admitted.
	tk, err := s.Submit("warm", Normal, "", time.Nanosecond, nil)
	if err != nil {
		t.Fatalf("admission with no data should succeed: %v", err)
	}
	// Seed a 10s average run; with one queued job ahead the estimated
	// wait for normal is ~10s.
	s.ObserveRun(10 * time.Second)
	_, err = s.Submit("tight", Normal, "", time.Second, nil)
	if !errors.Is(err, ErrMaxWait) {
		t.Fatalf("err = %v, want ErrMaxWait", err)
	}
	var rej *RejectError
	if !errors.As(err, &rej) || rej.RetryAfter < 5*time.Second {
		t.Fatalf("RetryAfter = %v, want an estimate >= 5s (err %v)", rej, err)
	}
	// A patient client is still admitted.
	if _, err := s.Submit("patient", Normal, "", time.Minute, nil); err != nil {
		t.Fatalf("patient submit: %v", err)
	}
	_ = tk
}

// estimateWait is the queue-wait estimate a submit of the class would
// be admitted against.
func estimateWait(s *Scheduler, class Class) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.estimateLocked(class)
}

func TestEstimateScalesWithBacklog(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 64})
	s.ObserveRun(4 * time.Second)
	if est := estimateWait(s, Normal); est != 0 {
		t.Fatalf("empty queue estimate = %v, want 0", est)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(string(rune('a'+i)), Normal, "", 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	// 4 ahead * 4s / 2 workers = 8s.
	if est := estimateWait(s, Normal); est != 8*time.Second {
		t.Fatalf("estimate = %v, want 8s", est)
	}
	// Batch sees the same backlog; interactive sees nothing queued at
	// or above its class.
	if est := estimateWait(s, Interactive); est != 0 {
		t.Fatalf("interactive estimate = %v, want 0", est)
	}
}

func TestRetryAfterHint(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	if got := s.RetryAfterHint(); got != 0 {
		t.Fatalf("hint with no data = %v, want 0", got)
	}
	s.ObserveRun(10 * time.Second)
	if got := s.RetryAfterHint(); got != 0 {
		t.Fatalf("hint with no running jobs = %v, want 0", got)
	}
	if _, err := s.Submit("a", Normal, "", 0, nil); err != nil {
		t.Fatal(err)
	}
	tk := s.Next()
	if got := s.RetryAfterHint(); got != 5*time.Second {
		t.Fatalf("hint = %v, want 5s (half of avg 10s, 1 worker)", got)
	}
	s.Finish(tk)
}

func TestPreemptionSignalsYoungestLowestClass(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	if _, err := s.Submit("b-old", Batch, "", 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("b-young", Batch, "", 0, nil); err != nil {
		t.Fatal(err)
	}
	old := s.Next()
	time.Sleep(2 * time.Millisecond) // distinct start times
	young := s.Next()
	if old.ID() != "b-old" || young.ID() != "b-young" {
		t.Fatalf("unexpected dequeue order: %s, %s", old.ID(), young.ID())
	}

	// All workers busy; interactive arrival must signal exactly the
	// youngest batch job.
	if _, err := s.Submit("i1", Interactive, "", 0, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-young.Preempted():
	case <-time.After(time.Second):
		t.Fatal("youngest batch job not signalled")
	}
	select {
	case <-old.Preempted():
		t.Fatal("older batch job should not be signalled")
	default:
	}
	if got := s.Preemptions(); got != 1 {
		t.Fatalf("preemptions = %d, want 1", got)
	}

	// A second interactive arrival picks the next victim (the old one).
	if _, err := s.Submit("i2", Interactive, "", 0, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-old.Preempted():
	case <-time.After(time.Second):
		t.Fatal("second interactive arrival should signal the remaining batch job")
	}
}

func TestNoPreemptionWhenWorkerFree(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	if _, err := s.Submit("b1", Batch, "", 0, nil); err != nil {
		t.Fatal(err)
	}
	b := s.Next() // 1 of 2 workers busy
	if _, err := s.Submit("i1", Interactive, "", 0, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Preempted():
		t.Fatal("preempted despite a free worker")
	default:
	}
	s.Finish(b)
}

func TestNoPreemptionOfInteractive(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	if _, err := s.Submit("i1", Interactive, "", 0, nil); err != nil {
		t.Fatal(err)
	}
	running := s.Next()
	if _, err := s.Submit("i2", Interactive, "", 0, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-running.Preempted():
		t.Fatal("interactive job must not preempt another interactive job")
	default:
	}
	if got := s.Preemptions(); got != 0 {
		t.Fatalf("preemptions = %d, want 0", got)
	}
}

func TestRequeueResumesAtHead(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	if _, err := s.Submit("victim", Batch, "", 0, nil); err != nil {
		t.Fatal(err)
	}
	victim := s.Next()
	// Queue more batch work behind it, then park the victim.
	if _, err := s.Submit("b2", Batch, "", 0, nil); err != nil {
		t.Fatal(err)
	}
	s.Requeue(victim)
	if victim.resumes != 1 {
		t.Fatalf("resumes = %d, want 1", victim.resumes)
	}
	got := s.Next()
	if got.ID() != "victim" {
		t.Fatalf("Next after requeue = %s, want victim (head of class)", got.ID())
	}
	// The re-armed channel must be open for the new attempt.
	select {
	case <-got.Preempted():
		t.Fatal("preempt channel not re-armed on requeue")
	default:
	}
	s.Finish(got)
}

func TestRequeueBypassesQueueDepth(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, ShedFraction: 1})
	if _, err := s.Submit("victim", Normal, "", 0, nil); err != nil {
		t.Fatal(err)
	}
	victim := s.Next()
	if _, err := s.Submit("filler", Normal, "", 0, nil); err != nil {
		t.Fatal(err)
	}
	// Queue is now full; the victim must still be re-admitted.
	s.Requeue(victim)
	if got := s.QueuedTotal(); got != 2 {
		t.Fatalf("queued = %d, want 2 (requeue is exempt from the cap)", got)
	}
	if got := s.Next(); got.ID() != "victim" {
		t.Fatalf("Next = %s, want victim", got.ID())
	}
}

func TestCloseDrainsThenNil(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	if _, err := s.Submit("a", Normal, "", 0, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Submit("b", Normal, "", 0, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	tk := s.Next()
	if tk == nil || tk.ID() != "a" {
		t.Fatalf("Next should drain queued work, got %v", tk)
	}
	s.Finish(tk)
	if tk := s.Next(); tk != nil {
		t.Fatalf("Next after drain = %v, want nil", tk)
	}
}

func TestNextBlocksUntilSubmit(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	got := make(chan *Ticket)
	go func() { got <- s.Next() }()
	select {
	case tk := <-got:
		t.Fatalf("Next returned %v before any submit", tk)
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := s.Submit("a", Normal, "", 0, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case tk := <-got:
		if tk.ID() != "a" {
			t.Fatalf("Next = %s, want a", tk.ID())
		}
		s.Finish(tk)
	case <-time.After(time.Second):
		t.Fatal("Next did not wake on submit")
	}
}

func TestAbortSkipsEstimates(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	if _, err := s.Submit("a", Normal, "", 0, nil); err != nil {
		t.Fatal(err)
	}
	tk := s.Next()
	s.Abort(tk)
	s.mu.Lock()
	avg, usage := s.avgRunS, s.usage[""]
	s.mu.Unlock()
	if avg != 0 || usage != 0 {
		t.Fatalf("Abort polluted estimates: avg=%v usage=%v", avg, usage)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	if _, err := s.Submit("b1", Batch, "acme corp", 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("i1", Interactive, "", 0, nil); err != nil {
		t.Fatal(err)
	}
	tk := s.Next()
	s.Finish(tk)

	var sb strings.Builder
	s.Registry().WriteText(&sb, "edmd_", sim.Time(0))
	out := sb.String()
	for _, want := range []string{
		"edmd_sched.preemptions 0",
		"edmd_sched.queue_depth.batch 1",
		"edmd_sched.queue_depth.interactive 0",
		"edmd_sched.dequeued_total.interactive 1",
		"edmd_sched.tenant_share.acme_corp ",
		"edmd_sched.tenant_share.default ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("registry output missing %q:\n%s", want, out)
		}
	}
}

func TestSubmitInvalidClass(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	if _, err := s.Submit("x", Class(7), "", 0, nil); err == nil {
		t.Fatal("Submit with invalid class should error")
	}
}

func TestRejectErrorMessage(t *testing.T) {
	err := &RejectError{Err: ErrQueueFull, RetryAfter: 1500 * time.Millisecond}
	if !strings.Contains(err.Error(), "1.5s") {
		t.Fatalf("message %q should mention the retry hint", err.Error())
	}
	bare := &RejectError{Err: ErrShed}
	if bare.Error() != ErrShed.Error() {
		t.Fatalf("message %q should be the bare sentinel without a hint", bare.Error())
	}
}
