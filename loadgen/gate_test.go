package loadgen

import "testing"

// TestGateVerdict pins the gate at its edges: under 6% slow is green, 6% or
// more is red (1 of 6 is the Load smoke's six-update run with one slow
// update), and any failure is red however many updates succeeded.
func TestGateVerdict(t *testing.T) {
	for _, tc := range []struct {
		updates, failures, slow int
		pass                    bool
	}{
		{100, 0, 0, true},
		{100, 0, 5, true},
		{100, 0, 6, false},
		{50, 0, 3, false},
		{6, 0, 1, false},
		{6, 0, 0, true},
		{100, 1, 0, false},
		{1000, 1, 0, false},
		{6, 6, 0, false},
		{0, 0, 0, true},
	} {
		if got := pass(tc.updates, tc.failures, tc.slow); got != tc.pass {
			t.Errorf("pass(updates %d, failures %d, slow %d) = %v, want %v",
				tc.updates, tc.failures, tc.slow, got, tc.pass)
		}
	}
}
