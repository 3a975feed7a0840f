//go:build unix

package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// offheap returns a zeroed []T of n elements in anonymous mapped memory,
// outside the Go heap. T must hold no pointers.
//
// The benchmark's own records — one latency entry per op, the traced
// pass's spans — live here because the workloads' live heaps are tiny
// (1–3 MB at the demo's size, where the collector runs 300 times a
// second against its 4 MB minimum goal): records kept on the heap grow
// it as the run proceeds, the collector's goal grows with it, and the
// measured latency drifts down by a third over 40 s. Off the heap they
// cannot change the pacing, so a number does not depend on how long the
// run was or on whether it was traced.
func offheap[T any](n int) []T {
	var zero T
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		panic(fmt.Sprintf("aqlbench: mmap %d records: %v", n, err)) // address space exhausted: nothing to measure
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

// release unmaps a slice offheap returned.
func release[T any](s []T) {
	var zero T
	b := unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), cap(s)*int(unsafe.Sizeof(zero)))
	_ = syscall.Munmap(b) // the mapping came from Mmap; failure only leaks address space
}
