package durable

import "testing"

// FailNextWriteTo makes the next write through the seam to a file named name
// write half its buffer and fail, as a short write on a full disk would, for
// the tests of the stores built on this package.
func FailNextWriteTo(t testing.TB, name string) {
	done := false
	swapSeam(t, &recorder{fail: func(_ int, s step) bool {
		if done || s.op != "write" || s.name != name {
			return false
		}
		done = true
		return true
	}})
}
