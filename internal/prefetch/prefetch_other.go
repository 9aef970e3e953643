//go:build !amd64 && !arm64

package prefetch

import "unsafe"

// Line does nothing on this architecture.
func Line(unsafe.Pointer) {}
