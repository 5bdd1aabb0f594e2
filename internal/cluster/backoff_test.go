package cluster

import (
	"testing"
	"time"
)

func TestBackoffDeterministicAndBounded(t *testing.T) {
	// Doubling from 10ms passes the 2s cap at attempt 9, so attempts
	// 9-10 check the cap.
	for attempt := 1; attempt <= 10; attempt++ {
		d1 := backoff("peer-fetch:k", attempt)
		d2 := backoff("peer-fetch:k", attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff not deterministic: %v vs %v", attempt, d1, d2)
		}
		nominal := 10 * time.Millisecond << (attempt - 1)
		if nominal > 2*time.Second {
			nominal = 2 * time.Second
		}
		if d1 < nominal/2 || d1 >= nominal {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempt, d1, nominal/2, nominal)
		}
	}
	if backoff("peer-fetch:k", 3) == backoff("peer-fill:k", 3) {
		t.Fatal("different operations share a jitter stream")
	}
}
