package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// checker judges every GET reply against what was written to that key.
//
// Time is a logical clock shared by all lanes. A SET takes a tick when it
// is issued; that tick is its version, and the value carries it. When the
// SET is acknowledged it takes a second tick, its ack tick. For each key the
// checker keeps the highest version acknowledged so far. A GET snapshots
// that figure (its floor) before it is sent, and its reply with version v
// is accepted when
//
//   - v >= floor: the write was issued no earlier than the newest write
//     acknowledged before the GET began, or
//   - v < floor and write v was not yet acknowledged when write floor was
//     issued (ack(v) > floor): the two writes overlapped, so the store may
//     have ordered them either way.
//
// Otherwise write floor started after write v had finished and finished
// before the GET began, and v is a stale value. A missing key is accepted
// only while no write to it has been acknowledged and it was not preloaded;
// version 0 (the preload) only while no write has been acknowledged. The
// check is sound (it never rejects a linearizable reply) and needs no
// history beyond one ack tick per write.
type checker struct {
	clk       atomic.Uint64
	acked     []atomic.Uint64 // per key index: highest acknowledged version
	preloaded int64

	ticks tickTable // per version: ack tick (pendingAck until acknowledged)
	keyOf tickTable // per version: key index + 1

	violations atomic.Int64
	mu         sync.Mutex
	samples    []string // first few violation messages, for the run log
}

const (
	pendingAck    = math.MaxUint64
	maxViolations = 8
)

func newChecker(keys, preloaded int64) *checker {
	return &checker{acked: make([]atomic.Uint64, keys), preloaded: preloaded}
}

// beginWrite issues a SET to key idx and returns its version.
func (c *checker) beginWrite(idx int64) uint64 {
	v := c.clk.Add(1)
	c.ticks.set(v, pendingAck)
	c.keyOf.set(v, uint64(idx)+1)
	return v
}

// ackWrite records that the SET with version v to key idx was acknowledged.
func (c *checker) ackWrite(idx int64, v uint64) {
	c.ticks.set(v, c.clk.Add(1))
	a := &c.acked[idx]
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// beginRead returns the floor a GET of key idx issued now is judged against.
func (c *checker) beginRead(idx int64) uint64 { return c.acked[idx].Load() }

// judgeRead checks one GET reply: found reports whether the key was present
// and ver the version its value carried.
func (c *checker) judgeRead(idx int64, floor uint64, found bool, ver uint64) error {
	switch {
	case !found:
		if floor != 0 || idx < c.preloaded {
			return fmt.Errorf("key %d missing (floor %d, preloaded %v)", idx, floor, idx < c.preloaded)
		}
		return nil
	case ver == 0:
		if floor != 0 || idx >= c.preloaded {
			return fmt.Errorf("key %d returned the preload value, floor %d", idx, floor)
		}
		return nil
	}
	if ver > c.clk.Load() || c.keyOf.get(ver) != uint64(idx)+1 {
		return fmt.Errorf("key %d returned version %d, never written to it", idx, ver)
	}
	if ver >= floor {
		return nil
	}
	if ack := c.ticks.get(ver); ack == pendingAck || ack > floor {
		return nil
	}
	return fmt.Errorf("key %d returned stale version %d; version %d was acknowledged before the read", idx, ver, floor)
}

// violate counts one correctness violation and keeps the first few messages.
func (c *checker) violate(err error) {
	c.violations.Add(1)
	c.mu.Lock()
	if len(c.samples) < maxViolations {
		c.samples = append(c.samples, err.Error())
	}
	c.mu.Unlock()
}

// messages returns the kept violation messages.
func (c *checker) messages() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.samples...)
}

// ackedKeys counts keys holding a value: the preload plus every other key
// with an acknowledged write.
func (c *checker) ackedKeys() int64 {
	n := c.preloaded
	for i := c.preloaded; i < int64(len(c.acked)); i++ {
		if c.acked[i].Load() != 0 {
			n++
		}
	}
	return n
}

// tickTable is a lock-free growable array of words indexed by tick,
// allocated in chunks on first touch.
type tickTable struct {
	chunks [1 << 16]atomic.Pointer[[tickChunk]atomic.Uint64]
}

const tickChunk = 1 << 16

func (t *tickTable) chunk(i uint64) *[tickChunk]atomic.Uint64 {
	slot := &t.chunks[i/tickChunk]
	if p := slot.Load(); p != nil {
		return p
	}
	slot.CompareAndSwap(nil, new([tickChunk]atomic.Uint64))
	return slot.Load()
}

func (t *tickTable) set(i, v uint64) { t.chunk(i)[i%tickChunk].Store(v) }

func (t *tickTable) get(i uint64) uint64 {
	p := t.chunks[i/tickChunk].Load()
	if p == nil {
		return 0
	}
	return p[i%tickChunk].Load()
}
