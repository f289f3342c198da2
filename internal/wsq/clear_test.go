package wsq

import (
	"sync"
	"testing"
)

func TestStealHalfClearKeepsHighWater(t *testing.T) {
	q := NewStealHalf(16)
	q.TrackHighWater(true)
	q.PushBatch([]int32{1, 2, 3, 4, 5})
	q.Clear()
	if q.Len() != 0 {
		t.Fatalf("Len after Clear = %d, want 0", q.Len())
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop after Clear returned an element")
	}
	if got := q.HighWater(); got != 5 {
		t.Fatalf("HighWater after Clear = %d, want 5", got)
	}
	q.Push(9)
	if v, ok := q.Pop(); !ok || v != 9 {
		t.Fatalf("Pop after Clear+Push = %d %v, want 9 true", v, ok)
	}
	q.Reset()
	if got := q.HighWater(); got != 0 {
		t.Fatalf("HighWater after Reset = %d, want 0", got)
	}
}

func TestChaseLevClear(t *testing.T) {
	d := NewChaseLev(64)
	for i := int32(0); i < 200; i++ { // past the initial ring: Clear sees a grown ring
		d.Push(i)
	}
	d.Clear()
	if d.Len() != 0 {
		t.Fatalf("Len after Clear = %d, want 0", d.Len())
	}
	if _, ok := d.Pop(); ok {
		t.Fatal("Pop after Clear returned an element")
	}
	d.Push(7)
	if v, ok := d.Pop(); !ok || v != 7 {
		t.Fatalf("Pop after Clear+Push = %d %v, want 7 true", v, ok)
	}
}

// clearable is the surface the concurrent Clear stress drives: both
// queue designs behind one owner/thief/clearer schedule.
type clearable struct {
	push  func(v int32)
	pop   func() (int32, bool)
	steal func(buf []int32) []int32
	clear func()
	len   func() int
}

// TestClearConcurrentWithOwnerAndThieves: Clear runs from a third
// goroutine while the owner pushes and pops and thieves steal. No
// element may be handed out twice, and a Clear issued after the owner
// stops leaves the queue empty. Run under -race this is the data-race
// certificate for the mid-run clear of the bottom-up sweep restart.
func TestClearConcurrentWithOwnerAndThieves(t *testing.T) {
	sh := NewStealHalf(64)
	sh.TrackHighWater(true)
	cl := NewChaseLev(64)
	for name, q := range map[string]clearable{
		"stealhalf": {sh.Push, sh.Pop, sh.Steal, sh.Clear, sh.Len},
		"chaselev": {cl.Push, cl.Pop, func(buf []int32) []int32 {
			if v, ok := cl.Steal(); ok {
				return append(buf, v)
			}
			return buf
		}, cl.Clear, cl.Len},
	} {
		t.Run(name, func(t *testing.T) {
			const n = 20000
			const thieves = 3
			var consumed sync.Map
			consume := func(v int32) {
				if _, dup := consumed.LoadOrStore(v, true); dup {
					t.Errorf("element %d consumed twice", v)
				}
			}
			ownerDone := make(chan struct{})
			running := func() bool {
				select {
				case <-ownerDone:
					return false
				default:
					return true
				}
			}
			go func() { // owner
				defer close(ownerDone)
				for i := int32(0); i < n; i++ {
					q.push(i)
					if i%3 == 0 {
						if v, ok := q.pop(); ok {
							consume(v)
						}
					}
				}
			}()
			var wg sync.WaitGroup
			wg.Add(1 + thieves)
			go func() { // clearer
				defer wg.Done()
				for running() {
					q.clear()
				}
			}()
			for th := 0; th < thieves; th++ {
				go func() {
					defer wg.Done()
					var buf []int32
					for running() {
						buf = q.steal(buf[:0])
						for _, v := range buf {
							consume(v)
						}
					}
				}()
			}
			wg.Wait() // the clearer and thieves exit only after the owner
			q.clear()
			if l := q.len(); l != 0 {
				t.Fatalf("Len after final Clear = %d, want 0", l)
			}
		})
	}
	if sh.HighWater() == 0 {
		t.Fatal("steal-half high-water lost across mid-run clears")
	}
}
