package leakprof

import (
	"testing"

	"repro/goleak"
)

// TestMain gates the package on the repository's own leak detector: a
// test that leaves a goroutine behind fails the package run.
func TestMain(m *testing.M) { goleak.VerifyTestMain(m) }
