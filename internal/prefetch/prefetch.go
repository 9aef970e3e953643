//go:build amd64 || arm64

// Package prefetch hints the CPU to bring a cache line in ahead of its
// use. A load that misses the cache stalls the instructions behind it
// once the reorder window fills, wherever the load sits; a prefetch
// retires at once and lets the line arrive while other work runs. It
// pays only where an address is known long before it is read.
package prefetch

import "unsafe"

// Line asks for the cache line holding p to be brought into every cache
// level (PREFETCHT0 on amd64, PRFM PLDL1KEEP on arm64). It never faults
// and changes no memory; on other architectures it does nothing.
//
//go:noescape
func Line(p unsafe.Pointer)
