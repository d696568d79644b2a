package bus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gate is a handler that blocks deliveries until released, recording
// what got through.
type gate struct {
	c       collector
	release chan struct{}
	entered chan struct{} // closed once the first delivery is in the handler
	once    sync.Once
}

func newGate() *gate {
	return &gate{release: make(chan struct{}), entered: make(chan struct{})}
}

func (g *gate) handle(m *Message) error {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return g.c.handle(m)
}

func TestMaxDeadCapEvictsOldest(t *testing.T) {
	b := New(Options{MaxAttempts: 1, MaxDead: 2})
	var evicted atomic.Int64
	b.opts.Observer.DLQEvicted = func() { evicted.Add(1) }
	defer b.Close()
	sub, _ := b.Subscribe("t", "angry", func(*Message) error {
		return errors.New("always fails")
	})
	for i := 0; i < 5; i++ {
		b.Publish("t", []byte(fmt.Sprintf("m%d", i)))
	}
	if !b.Flush(flushTimeout) {
		t.Fatal("Flush timed out")
	}
	dls := sub.DeadLetters()
	if len(dls) != 2 {
		t.Fatalf("DLQ length = %d, want the MaxDead cap of 2", len(dls))
	}
	// The survivors are the newest dead letters.
	if string(dls[0].Body) != "m3" || string(dls[1].Body) != "m4" {
		t.Errorf("DLQ survivors = %v, want [m3 m4]", bodiesOf(dls))
	}
	if st := b.Stats(); st.DLQEvicted != 3 {
		t.Errorf("DLQEvicted = %d, want 3", st.DLQEvicted)
	}
	if evicted.Load() != 3 {
		t.Errorf("observer saw %d evictions, want 3", evicted.Load())
	}
}

func TestQueueDepthAndHighWaterMark(t *testing.T) {
	var depth atomic.Int64
	var hwm atomic.Int64
	b := New(Options{Observer: Observer{
		QueueDepth: func(d int) { depth.Add(int64(d)) },
		QueueHWM:   func(d int) { hwm.Store(int64(d)) },
	}})
	defer b.Close()
	g := newGate()
	b.Subscribe("t", "slow", g.handle)
	const n = 8
	for i := 0; i < n; i++ {
		b.Publish("t", []byte("m"))
	}
	deadline := time.Now().Add(flushTimeout)
	for b.Stats().QueueHWM < n-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := b.Stats().QueueHWM; got < n-1 {
		// One message may dequeue into the handler before the rest land.
		t.Errorf("QueueHWM = %d, want >= %d", got, n-1)
	}
	close(g.release)
	if !b.Flush(flushTimeout) {
		t.Fatal("Flush timed out")
	}
	if got := b.Stats().QueueDepth; got != 0 {
		t.Errorf("QueueDepth after drain = %d", got)
	}
	if depth.Load() != 0 {
		t.Errorf("observer depth sum = %d after drain, want 0", depth.Load())
	}
	if hwm.Load() < n-1 {
		t.Errorf("observer HWM = %d, want >= %d", hwm.Load(), n-1)
	}
}

// TestCloseCapturesQueuedMessages: Close lets the in-flight delivery
// complete, and everything still queued lands in the drain snapshot
// instead of vanishing.
func TestCloseCapturesQueuedMessages(t *testing.T) {
	b := New(Options{})
	g := newGate()
	b.Subscribe("t", "slow", g.handle)
	b.Publish("t", []byte("inflight"))
	<-g.entered
	const queued = 5
	for i := 0; i < queued; i++ {
		b.Publish("t", []byte(fmt.Sprintf("q%d", i)))
	}
	closed := make(chan struct{})
	go func() {
		b.Close() // blocks on the in-flight handler
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a delivery was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(g.release)
	select {
	case <-closed:
	case <-time.After(flushTimeout):
		t.Fatal("Close never returned after the handler finished")
	}
	if got := g.c.count(); got != 1 {
		t.Errorf("in-flight deliveries completed = %d, want 1", got)
	}
	snap := b.DrainSnapshot()
	if len(snap) != queued {
		t.Fatalf("DrainSnapshot = %v, want %d messages", bodiesOf(snap), queued)
	}
	for i, m := range snap {
		if want := fmt.Sprintf("q%d", i); string(m.Body) != want {
			t.Errorf("snapshot[%d] = %q, want %q", i, m.Body, want)
		}
	}
	if got := b.Stats().QueueDepth; got != 0 {
		t.Errorf("QueueDepth after Close = %d", got)
	}
}

// TestFlushContextDuringClose: a flush racing Close must return (either
// drained or with an error), never deadlock.
func TestFlushContextDuringClose(t *testing.T) {
	b := New(Options{})
	g := newGate()
	b.Subscribe("t", "slow", g.handle)
	b.Publish("t", []byte("inflight"))
	<-g.entered
	for i := 0; i < 3; i++ {
		b.Publish("t", []byte("q"))
	}
	ctx, cancel := context.WithTimeout(context.Background(), flushTimeout)
	defer cancel()
	flushed := make(chan error, 1)
	go func() { flushed <- b.FlushContext(ctx) }()
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	time.Sleep(10 * time.Millisecond)
	close(g.release)
	select {
	case <-closed:
	case <-time.After(flushTimeout):
		t.Fatal("Close deadlocked against FlushContext")
	}
	select {
	case <-flushed: // drained (nil) or aborted — both fine, just not stuck
	case <-time.After(flushTimeout):
		t.Fatal("FlushContext never returned during Close")
	}
}

// TestConcurrentPublishersBoundedQueue: under -race, hammering a bounded
// queue from many goroutines keeps the depth accounting exact, while a
// second subscription on the topic is added and removed concurrently
// with the fan-out that runs under the broker's read lock.
func TestConcurrentPublishersBoundedQueue(t *testing.T) {
	b := New(Options{MaxPending: 4})
	defer b.Close()
	var c collector
	sub, _ := b.Subscribe("t", "s", c.handle)
	stop := make(chan struct{})
	churned := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				churned <- n
				return
			default:
			}
			if _, err := b.Subscribe("t", "churn", func(*Message) error { return nil }); err != nil {
				t.Errorf("Subscribe churn: %v", err)
			}
			if err := b.Unsubscribe("t", "churn"); err != nil {
				t.Errorf("Unsubscribe churn: %v", err)
			}
			n++
		}
	}()
	var wg sync.WaitGroup
	const pubs, per = 8, 50
	for p := 0; p < pubs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b.Publish("t", []byte("m"))
			}
		}()
	}
	wg.Wait()
	close(stop)
	if n := <-churned; n == 0 {
		t.Error("churn goroutine never cycled a subscription")
	}
	if !b.Flush(flushTimeout) {
		t.Fatal("Flush timed out")
	}
	if got := b.Stats().QueueDepth; got != 0 {
		t.Errorf("QueueDepth after drain = %d", got)
	}
	if got, shed := c.count(), len(sub.DeadLetters()); got+shed != pubs*per {
		t.Errorf("delivered %d + overflowed %d != %d", got, shed, pubs*per)
	}
}

func bodiesOf(msgs []*Message) []string {
	out := make([]string, len(msgs))
	for i, m := range msgs {
		out[i] = string(m.Body)
	}
	return out
}
