package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// epoch is the origin of the timestamps kept in off-heap records,
// which must not hold a time.Time (it carries a pointer).
var epoch = time.Now()

func sinceEpoch() time.Duration { return time.Since(epoch) }

// offHeap is an append-only array of records in anonymous memory
// mapped outside the Go heap, so that what the benchmark records
// during a timed phase does not show in the heap metrics it reports.
// T must hold no pointers: the garbage collector does not scan it.
type offHeap[T any] struct {
	mem  []byte
	recs []T // len: records added; cap: records reserved
}

// newOffHeap reserves room for n records. Untouched pages cost no
// memory.
func newOffHeap[T any](n int) (*offHeap[T], error) {
	var zero T
	mem, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("reserving record space: %w", err)
	}
	return &offHeap[T]{mem: mem, recs: unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n)[:0]}, nil
}

// add appends v, or reports false when the reserved room is used up.
func (o *offHeap[T]) add(v T) bool {
	if len(o.recs) == cap(o.recs) {
		return false
	}
	o.recs = append(o.recs, v)
	return true
}

// release copies the records onto the Go heap and unmaps the space.
func (o *offHeap[T]) release() []T {
	out := append([]T(nil), o.recs...)
	o.recs = nil
	syscall.Munmap(o.mem)
	return out
}
