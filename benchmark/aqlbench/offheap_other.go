//go:build !unix

package main

// Without mmap the records live on the Go heap, and the drift offheap.go
// describes comes back: numbers taken on such a platform are not
// comparable with the recorded baseline.
func offheap[T any](n int) []T { return make([]T, n) }

func release[T any](s []T) {}
