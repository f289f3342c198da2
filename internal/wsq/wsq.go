// Package wsq provides the work-stealing queues used by the traversal
// step of the spanning-tree algorithm.
//
// The paper's load-balancing protocol is steal-half: "whenever any
// processor finishes with its own work ... it randomly checks other
// processors' queues. If it finds a non-empty queue, the processor
// steals part of the queue." StealHalf implements exactly that: a FIFO
// ring buffer (the BFS queue of Algorithm 1) whose owner pushes at the
// back and pops at the front, and whose thieves remove half the queue in
// one locked operation. The owner's hot path is chunked — PopBatch
// drains up to a chunk per lock acquisition and PushBatch appends a
// whole batch of children per lock acquisition — so the per-vertex
// mutex traffic of a naive port amortizes to ~2 lock operations per
// chunk.
//
// ChaseLev is the classic lock-free steal-one deque, provided as an
// ablation point: the benchmark suite compares steal-half against
// steal-one to quantify the benefit of bulk stealing on queue-shaped
// frontiers.
package wsq

import (
	"sync"
	"sync/atomic"
)

// StealHalf is a FIFO queue with bulk stealing. All operations are
// guarded by a mutex: the owner's push/pop path is uncontended in the
// common case, and thieves appear only when idle, which matches the
// paper's "lightweight work stealing protocol".
type StealHalf struct {
	mu   sync.Mutex
	buf  []int32
	head int // index of front element
	tail int // index one past back element
	// size == tail-head under mu; a separate atomic mirror lets idle
	// processors scan for victims without taking every lock.
	size atomic.Int64
	// high is the maximum live length the queue ever reached (under mu),
	// the per-worker queue_high_water metric of the observability layer.
	// Maintained only when track is set: the live-length check costs a
	// few percent of traversal time, so it is pay-for-what-you-ask.
	high  int
	track bool
}

// TrackHighWater enables high-water accounting. Call before first use;
// with it off (the default) HighWater reports 0.
func (q *StealHalf) TrackHighWater(on bool) { q.track = on }

// NewStealHalf returns an empty queue with the given initial capacity
// (minimum 16).
func NewStealHalf(capacity int) *StealHalf {
	if capacity < 16 {
		capacity = 16
	}
	return &StealHalf{buf: make([]int32, capacity)}
}

// Len returns the current queue length (racy snapshot, suitable for
// victim selection).
func (q *StealHalf) Len() int { return int(q.size.Load()) }

// Reset empties the queue while retaining its grown buffer, rearming it
// for a new run on a pooled workspace (the capacity a session
// provisioned — or a previous run grew — is the asset being reused).
// The caller must guarantee no owner or thief of a previous run still
// touches the queue.
func (q *StealHalf) Reset() {
	q.mu.Lock()
	q.head, q.tail = 0, 0
	q.high = 0
	q.size.Store(0)
	q.mu.Unlock()
}

// Clear empties the queue in the middle of a run. It takes the queue
// lock, so it is safe while the owner pushes and pops and thieves steal:
// each of them sees the queue either before or after the clear. Unlike
// Reset it keeps the high-water mark, which still describes the run.
func (q *StealHalf) Clear() {
	q.mu.Lock()
	q.head, q.tail = 0, 0
	q.size.Store(0)
	q.mu.Unlock()
}

// Cap returns the current buffer capacity (for provisioning checks).
func (q *StealHalf) Cap() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf)
}

// Push appends v at the back of the queue.
func (q *StealHalf) Push(v int32) {
	q.mu.Lock()
	if q.tail == len(q.buf) {
		q.compactOrGrow(1)
	}
	q.buf[q.tail] = v
	q.tail++
	q.size.Add(1)
	if q.track {
		if live := q.tail - q.head; live > q.high {
			q.high = live
		}
	}
	q.mu.Unlock()
}

// PushBatch appends all of vs at the back of the queue.
func (q *StealHalf) PushBatch(vs []int32) {
	if len(vs) == 0 {
		return
	}
	q.mu.Lock()
	if q.tail+len(vs) > len(q.buf) {
		q.compactOrGrow(len(vs))
	}
	copy(q.buf[q.tail:], vs)
	q.tail += len(vs)
	q.size.Add(int64(len(vs)))
	if q.track {
		if live := q.tail - q.head; live > q.high {
			q.high = live
		}
	}
	q.mu.Unlock()
}

// compactOrGrow (with mu held) makes room for extra more elements by
// sliding live elements to the front, doubling the buffer when more
// than half is live.
func (q *StealHalf) compactOrGrow(extra int) {
	live := q.tail - q.head
	need := live + extra
	if need > len(q.buf)/2 {
		newCap := len(q.buf) * 2
		for newCap < need {
			newCap *= 2
		}
		nb := make([]int32, newCap)
		copy(nb, q.buf[q.head:q.tail])
		q.buf = nb
	} else {
		copy(q.buf, q.buf[q.head:q.tail])
	}
	q.head, q.tail = 0, live
}

// HighWater returns the maximum length the queue ever reached.
func (q *StealHalf) HighWater() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.high
}

// PopBatch removes up to len(dst) elements from the front of the queue
// in one locked operation, copying them into dst and returning the
// count (0 when the queue is empty or dst is empty). This is the
// owner's chunked drain: one lock acquisition amortizes over the whole
// chunk, and the atomic size mirror is updated once, so Len stays exact
// at chunk boundaries. Elements moved into dst are no longer visible to
// thieves, exactly as if the owner had popped them one by one.
func (q *StealHalf) PopBatch(dst []int32) int {
	n, _ := q.PopBatchLen(dst)
	return n
}

// PopBatchLen is PopBatch plus the post-drain queue length, read under
// the same lock acquisition. The adaptive chunk controller sizes its
// next drain from the remaining depth, and reading it here gives an
// exact signal without a second synchronized probe of the size mirror.
func (q *StealHalf) PopBatchLen(dst []int32) (n, remaining int) {
	if len(dst) == 0 {
		return 0, q.Len()
	}
	q.mu.Lock()
	n = q.tail - q.head
	if n == 0 {
		q.mu.Unlock()
		return 0, 0
	}
	if n > len(dst) {
		n = len(dst)
	}
	copy(dst, q.buf[q.head:q.head+n])
	q.head += n
	q.size.Add(-int64(n))
	remaining = q.tail - q.head
	q.mu.Unlock()
	return n, remaining
}

// Pop removes and returns the front element, or ok == false when empty.
func (q *StealHalf) Pop() (v int32, ok bool) {
	q.mu.Lock()
	if q.head == q.tail {
		q.mu.Unlock()
		return 0, false
	}
	v = q.buf[q.head]
	q.head++
	q.size.Add(-1)
	q.mu.Unlock()
	return v, true
}

// Steal removes ceil(len/2) elements from the front of the queue in one
// operation, appending them to into and returning the extended slice.
// It returns into unchanged when the queue is empty.
func (q *StealHalf) Steal(into []int32) []int32 {
	q.mu.Lock()
	live := q.tail - q.head
	if live == 0 {
		q.mu.Unlock()
		return into
	}
	take := (live + 1) / 2
	into = append(into, q.buf[q.head:q.head+take]...)
	q.head += take
	q.size.Add(-int64(take))
	q.mu.Unlock()
	return into
}

// Drain removes every element, appending to into.
func (q *StealHalf) Drain(into []int32) []int32 {
	q.mu.Lock()
	into = append(into, q.buf[q.head:q.tail]...)
	q.size.Add(-int64(q.tail - q.head))
	q.head, q.tail = 0, 0
	q.mu.Unlock()
	return into
}

// ChaseLev is the Chase–Lev work-stealing deque: the owner pushes and
// pops at the bottom (LIFO) without locks; thieves steal single elements
// from the top with a CAS.
type ChaseLev struct {
	top    atomic.Int64
	bottom atomic.Int64
	ring   atomic.Pointer[clRing]
	// high mirrors StealHalf.high: the deque's maximum observed length.
	// Owner-only writes, so a load-compare-store suffices. Maintained
	// only when track is set (set before first use, read-only after).
	high  atomic.Int64
	track bool
}

// TrackHighWater enables high-water accounting. Call before first use;
// with it off (the default) HighWater reports 0.
func (d *ChaseLev) TrackHighWater(on bool) { d.track = on }

// clRing is the deque's circular buffer. Its slots are atomic: a thief
// may read a slot the owner is overwriting after a wrap (its CAS on top
// then fails and the value is discarded), which is a data race on plain
// memory.
type clRing struct {
	mask int64
	buf  []atomic.Int32
}

func newCLRing(capacity int64) *clRing {
	return &clRing{mask: capacity - 1, buf: make([]atomic.Int32, capacity)}
}

func (r *clRing) get(i int64) int32    { return r.buf[i&r.mask].Load() }
func (r *clRing) put(i int64, v int32) { r.buf[i&r.mask].Store(v) }
func (r *clRing) grow(b, t int64) *clRing {
	nr := newCLRing((r.mask + 1) * 2)
	for i := t; i < b; i++ {
		nr.put(i, r.get(i))
	}
	return nr
}

// NewChaseLev returns an empty deque (initial capacity rounded up to a
// power of two, minimum 64).
func NewChaseLev(capacity int) *ChaseLev {
	c := int64(64)
	for c < int64(capacity) {
		c *= 2
	}
	d := &ChaseLev{}
	d.ring.Store(newCLRing(c))
	return d
}

// Len returns a racy snapshot of the deque size.
func (d *ChaseLev) Len() int {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// Push appends v at the bottom. Owner-only.
func (d *ChaseLev) Push(v int32) {
	b := d.bottom.Load()
	t := d.top.Load()
	r := d.ring.Load()
	if b-t > r.mask {
		r = r.grow(b, t)
		d.ring.Store(r)
	}
	r.put(b, v)
	d.bottom.Store(b + 1)
	if d.track {
		if n := b + 1 - t; n > d.high.Load() {
			d.high.Store(n)
		}
	}
}

// HighWater returns the maximum length the deque ever reached.
func (d *ChaseLev) HighWater() int { return int(d.high.Load()) }

// Pop removes and returns the bottom element. Owner-only.
func (d *ChaseLev) Pop() (int32, bool) {
	b := d.bottom.Load() - 1
	r := d.ring.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Empty: restore.
		d.bottom.Store(t)
		return 0, false
	}
	v := r.get(b)
	if b > t {
		return v, true
	}
	// Single element left: race with thieves via CAS on top.
	won := d.top.CompareAndSwap(t, t+1)
	d.bottom.Store(t + 1)
	if won {
		return v, true
	}
	return 0, false
}

// Clear empties the deque from any thread by stealing every element,
// so it is safe while the owner pushes and pops and other thieves steal.
// An element the owner pushes during the clear may be removed too.
func (d *ChaseLev) Clear() {
	for d.Len() > 0 {
		d.Steal()
	}
}

// Steal removes and returns the top element. Any thread.
func (d *ChaseLev) Steal() (int32, bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return 0, false
	}
	r := d.ring.Load()
	v := r.get(t)
	if d.top.CompareAndSwap(t, t+1) {
		return v, true
	}
	return 0, false
}
