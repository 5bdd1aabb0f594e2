package faultinject

import (
	"context"
	"errors"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestFireCountsAndBurnsOut(t *testing.T) {
	s := New(Fault{Target: "a", Times: 2})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := s.Fire(ctx, "a"); !errors.Is(err, ErrInjected) {
			t.Fatalf("firing %d: err = %v", i, err)
		}
	}
	if err := s.Fire(ctx, "a"); err != nil {
		t.Fatalf("burned-out fault still fires: %v", err)
	}
	if err := s.Fire(ctx, "unscheduled"); err != nil {
		t.Fatalf("unscheduled target fired: %v", err)
	}
	if got := s.Count("a"); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
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

func TestRateIsSeededAndDeterministic(t *testing.T) {
	fire := func(seed uint64) string {
		s := New(Fault{Target: "a", Rate: 0.5, Seed: seed})
		var b strings.Builder
		for i := 0; i < 64; i++ {
			if s.Fire(context.Background(), "a") != nil {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		return b.String()
	}
	p1, p2 := fire(7), fire(7)
	if p1 != p2 {
		t.Fatalf("same seed, different injection pattern:\n%s\n%s", p1, p2)
	}
	if fire(8) == p1 {
		t.Fatalf("different seeds share an injection pattern")
	}
	ones := strings.Count(p1, "1")
	if ones == 0 || ones == 64 {
		t.Fatalf("rate 0.5 injected %d/64", ones)
	}
}

func TestParse(t *testing.T) {
	s, err := Parse("fig1=error:2, table3=panic ,fig5=hang,plain")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fig1", "fig5", "plain", "table3"}
	var targets []string
	for target := range s.faults {
		targets = append(targets, target)
	}
	sort.Strings(targets)
	if got := strings.Join(targets, ","); got != strings.Join(want, ",") {
		t.Fatalf("targets = %q", got)
	}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := s.Fire(ctx, "fig1"); !errors.Is(err, ErrInjected) {
			t.Fatalf("fig1 firing %d: %v", i, err)
		}
	}
	if err := s.Fire(ctx, "fig1"); err != nil {
		t.Fatalf("fig1 fired a third time: %v", err)
	}
	if err := s.Fire(ctx, "plain"); !errors.Is(err, ErrInjected) {
		t.Fatalf("bare target did not default to one error: %v", err)
	}

	for _, bad := range []string{"a=explode", "a=error:0", "a=error:x", "=error"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
	if s, err := Parse(""); err != nil || s.Enabled() {
		t.Fatalf("empty spec: %v, enabled=%v", err, s.Enabled())
	}
}
