package faultinject

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

func TestFireEveryInvocation(t *testing.T) {
	s := New(Fault{Target: "a"})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := s.Fire(ctx, "a"); !errors.Is(err, ErrInjected) {
			t.Fatalf("firing %d: err = %v", i, err)
		}
	}
	if err := s.Fire(ctx, "unscheduled"); err != nil {
		t.Fatalf("unscheduled target fired: %v", err)
	}
}

func TestNilScheduleInjectsNothing(t *testing.T) {
	var s *Schedule
	if s.Enabled() {
		t.Fatal("nil schedule enabled")
	}
	if err := s.Fire(context.Background(), "a"); err != nil {
		t.Fatalf("nil schedule fired: %v", err)
	}
}

func TestFirePanics(t *testing.T) {
	s := New(Fault{Target: "a", Kind: KindPanic})
	defer func() {
		if recover() == nil {
			t.Fatal("panic fault did not panic")
		}
	}()
	_ = s.Fire(context.Background(), "a")
}

func TestFireHangRespectsContext(t *testing.T) {
	s := New(Fault{Target: "a", Kind: KindHang})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := s.Fire(ctx, "a")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang returned %v, want deadline exceeded", err)
	}
}

func TestParse(t *testing.T) {
	s, err := Parse("fig1=error, table3=panic ,fig5=hang,plain")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Kind{"fig1": KindError, "fig5": KindHang, "plain": KindError, "table3": KindPanic}
	if !reflect.DeepEqual(s.faults, want) {
		t.Fatalf("faults = %v, want %v", s.faults, want)
	}
	if err := s.Fire(context.Background(), "plain"); !errors.Is(err, ErrInjected) {
		t.Fatalf("bare target did not default to an error: %v", err)
	}

	for _, bad := range []string{"a=explode", "a=error:2", "a=", "=error"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
	if s, err := Parse(""); err != nil || s.Enabled() {
		t.Fatalf("empty spec: %v, enabled=%v", err, s.Enabled())
	}
}
