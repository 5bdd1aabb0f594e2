package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// itemLabels names n Map items "#0" .. "#n-1".
func itemLabels(n int) []string {
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("#%d", i)
	}
	return labels
}

func TestMapOrderedResults(t *testing.T) {
	got, err := Map(context.Background(), itemLabels(20), Options{Jobs: 4}, func(ctx context.Context, i int) (int, error) {
		if i%3 == 0 {
			time.Sleep(time.Millisecond) // scramble completion order
		}
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

// TestMapStartsInLabelOrder: items have no dependencies, so at one
// worker they start in label order, not in whatever order their
// goroutines are scheduled.
func TestMapStartsInLabelOrder(t *testing.T) {
	const n = 16
	var started []int // appended under the single worker slot
	if _, err := Map(context.Background(), itemLabels(n), Options{Jobs: 1}, func(ctx context.Context, i int) (int, error) {
		started = append(started, i)
		return i, nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, got := range started {
		if got != i {
			t.Fatalf("start order %v, want 0..%d", started, n-1)
		}
	}
	if len(started) != n {
		t.Fatalf("started %d items, want %d", len(started), n)
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(context.Background(), itemLabels(0), Options{Jobs: 4}, func(ctx context.Context, i int) (int, error) {
		return 0, fmt.Errorf("must not run")
	})
	if err != nil || got != nil {
		t.Fatalf("empty map: %v, %v", got, err)
	}
}

func TestMapFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	_, err := Map(context.Background(), itemLabels(50), Options{Jobs: 8}, func(ctx context.Context, i int) (int, error) {
		if i == 7 {
			return 0, fmt.Errorf("item %d: %w", i, boom)
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestMapCancellationStopsWork(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	done := make(chan struct{})
	go func() {
		<-done
		cancel()
	}()
	_, err := Map(ctx, itemLabels(1000), Options{Jobs: 2}, func(ctx context.Context, i int) (int, error) {
		if ran.Add(1) == 2 {
			close(done)
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(2 * time.Millisecond):
			return i, nil
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("cancellation did not stop the pool (%d items ran)", n)
	}
}

func TestMapPerItemTimeout(t *testing.T) {
	_, err := Map(context.Background(), itemLabels(3), Options{Jobs: 2, Timeout: 10 * time.Millisecond}, func(ctx context.Context, i int) (int, error) {
		if i == 1 {
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(5 * time.Second):
			}
		}
		return i, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestMapWorkerClamp(t *testing.T) {
	var inFlight, peak atomic.Int64
	_, err := Map(context.Background(), itemLabels(30), Options{Jobs: 3}, func(ctx context.Context, i int) (int, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d exceeds workers=3", p)
	}
}
