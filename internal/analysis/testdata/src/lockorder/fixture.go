// Package lockorder is a golden fixture for the lockorder analyzer:
// acquisition-order cycles (including self-acquisition) and locks held
// across blocking operations.
package lockorder

import (
	"net/http"
	"sync"
	"time"
)

// --- acquisition-order cycle: a→b in one function, b→a in another ---

type pair struct {
	a sync.Mutex
	b sync.Mutex
}

func (p *pair) ab() {
	p.a.Lock()
	defer p.a.Unlock()
	p.b.Lock() // want "lock-order cycle"
	p.b.Unlock()
}

func (p *pair) ba() {
	p.b.Lock()
	defer p.b.Unlock()
	p.a.Lock() // want "lock-order cycle"
	p.a.Unlock()
}

// --- consistent nesting order on an unrelated pair: no cycle ---

type ordered struct {
	outer sync.Mutex
	inner sync.Mutex
}

func (o *ordered) nested() {
	o.outer.Lock()
	defer o.outer.Unlock()
	o.inner.Lock()
	o.inner.Unlock()
}

// --- self-acquisition, direct and through a callee ---

type counter struct{ mu sync.Mutex }

func (c *counter) doubleLock() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mu.Lock() // want "not reentrant"
	c.mu.Unlock()
}

type gauge struct{ mu sync.Mutex }

func (g *gauge) outer() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inner() // want "not reentrant"
}

func (g *gauge) inner() {
	g.mu.Lock()
	g.mu.Unlock()
}

// --- blocking operations under a lock ---

type state struct{ mu sync.Mutex }

func (s *state) send(ch chan int) {
	s.mu.Lock()
	ch <- 1 // want "held across a channel send"
	s.mu.Unlock()
}

func (s *state) recv(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	<-ch // want "held across a channel receive"
}

func (s *state) selectBlocking(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want "held across a select without default"
	case v := <-ch:
		_ = v
	}
}

func (s *state) fetch(c *http.Client) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.Get("http://unreachable.invalid/") // want "net/http round trip"
}

func waitUnderLock(mu *sync.Mutex, wg *sync.WaitGroup) {
	mu.Lock()
	wg.Wait() // want "sync.WaitGroup.Wait"
	mu.Unlock()
}

// --- interprocedural: the blocking operation is inside a callee ---

func sleepy() { time.Sleep(time.Millisecond) }

func lockedSleep(mu *sync.Mutex) {
	mu.Lock()
	sleepy() // want "time.Sleep inside sleepy"
	mu.Unlock()
}

// --- read locks participate too ---

type rw struct{ mu sync.RWMutex }

func (r *rw) readHeld(ch chan int) {
	r.mu.RLock()
	<-ch // want "held across a channel receive"
	r.mu.RUnlock()
}

// --- negatives ---

// A select with a default never blocks.
func (s *state) trySend(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case ch <- 1:
	default:
	}
}

// Unlock-and-return on one branch must not poison the fall-through
// path: the lock is released on both.
func branchy(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	if cap(ch) == 0 {
		mu.Unlock()
		return
	}
	mu.Unlock()
	ch <- 1
}

// A goroutine body is a separate flow: the spawner's locks are not
// held inside it.
func spawns(mu *sync.Mutex, ch chan int, wg *sync.WaitGroup) {
	mu.Lock()
	defer mu.Unlock()
	wg.Add(1)
	go func() {
		defer wg.Done()
		ch <- 1
	}()
}
