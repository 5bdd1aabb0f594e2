package engine

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunRespectsDependencies(t *testing.T) {
	// Diamond: base <- {left, right} <- top. Each task appends to the
	// log; the dependency edges guarantee base is first and top last.
	r := NewRegistry[int]()
	var mu sync.Mutex
	var log []string
	mark := func(name string) RunFunc[int] {
		return func(ctx context.Context, env int) (any, error) {
			mu.Lock()
			log = append(log, name)
			mu.Unlock()
			return name + "!", nil
		}
	}
	r.MustRegister("base", nil, mark("base"))
	r.MustRegister("left", []string{"base"}, mark("left"))
	r.MustRegister("right", []string{"base"}, mark("right"))
	r.MustRegister("top", []string{"left", "right"}, mark("top"))
	res, err := Run(context.Background(), r, []string{"top"}, 0, Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Only the requested name comes back, dependencies ran silently.
	if len(res) != 1 || res[0].Name != "top" || res[0].Value != "top!" {
		t.Fatalf("results = %+v", res)
	}
	if len(log) != 4 || log[0] != "base" || log[3] != "top" {
		t.Fatalf("execution order = %v", log)
	}
}

func TestRunDeterministicResultOrder(t *testing.T) {
	r := NewRegistry[int]()
	for _, n := range []string{"a", "b", "c", "d"} {
		name := n
		r.MustRegister(name, nil, func(ctx context.Context, env int) (any, error) {
			if name == "a" {
				time.Sleep(30 * time.Millisecond) // finish last
			}
			return name, nil
		})
	}
	res, err := Run(context.Background(), r, []string{"a", "b", "c", "d"}, 0, Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"a", "b", "c", "d"} {
		if res[i].Name != want || res[i].Value != want {
			t.Fatalf("res[%d] = %+v, want %s", i, res[i], want)
		}
	}
}

func TestRunUnknownName(t *testing.T) {
	r := NewRegistry[int]()
	r.MustRegister("a", nil, nopRun)
	if _, err := Run(context.Background(), r, []string{"nope"}, 0, Options{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunCycleRejected(t *testing.T) {
	r := NewRegistry[int]()
	r.MustRegister("a", []string{"b"}, nopRun)
	r.MustRegister("b", []string{"a"}, nopRun)
	_, err := Run(context.Background(), r, []string{"a"}, 0, Options{})
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not rejected: %v", err)
	}
}

func TestRunDependencyFailureSkipsDependents(t *testing.T) {
	r := NewRegistry[int]()
	boom := errors.New("boom")
	var topRan atomic.Bool
	r.MustRegister("bad", nil, func(ctx context.Context, env int) (any, error) {
		return nil, boom
	})
	r.MustRegister("top", []string{"bad"}, func(ctx context.Context, env int) (any, error) {
		topRan.Store(true)
		return nil, nil
	})
	_, err := Run(context.Background(), r, []string{"top"}, 0, Options{Jobs: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("root error not reported: %v", err)
	}
	if topRan.Load() {
		t.Fatal("dependent ran despite failed dependency")
	}
}

func TestRunFailureCancelsSiblings(t *testing.T) {
	r := NewRegistry[int]()
	boom := errors.New("boom")
	r.MustRegister("bad", nil, func(ctx context.Context, env int) (any, error) {
		return nil, boom
	})
	r.MustRegister("slow", nil, func(ctx context.Context, env int) (any, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return nil, fmt.Errorf("sibling not cancelled")
		}
	})
	start := time.Now()
	_, err := Run(context.Background(), r, []string{"bad", "slow"}, 0, Options{Jobs: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want root failure", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("run did not cancel the slow sibling")
	}
}

func TestRunContextCancellationMidRun(t *testing.T) {
	r := NewRegistry[int]()
	started := make(chan struct{})
	r.MustRegister("hang", nil, func(ctx context.Context, env int) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	_, err := Run(ctx, r, []string{"hang"}, 0, Options{Jobs: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunPerExperimentTimeout(t *testing.T) {
	r := NewRegistry[int]()
	r.MustRegister("slow", nil, func(ctx context.Context, env int) (any, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return "done", nil
		}
	})
	_, err := Run(context.Background(), r, []string{"slow"}, 0, Options{Jobs: 1, Timeout: 20 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestRunSwallowedCancellationStillFails(t *testing.T) {
	r := NewRegistry[int]()
	r.MustRegister("sloppy", nil, func(ctx context.Context, env int) (any, error) {
		<-ctx.Done()
		return "ok", nil // ignores the timeout
	})
	_, err := Run(context.Background(), r, []string{"sloppy"}, 0, Options{Timeout: 10 * time.Millisecond})
	if err == nil {
		t.Fatal("timed-out experiment reported success")
	}
}

func TestRunBoundedWorkers(t *testing.T) {
	r := NewRegistry[int]()
	var inFlight, peak atomic.Int64
	for i := 0; i < 8; i++ {
		r.MustRegister(fmt.Sprintf("t%d", i), nil, func(ctx context.Context, env int) (any, error) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(10 * time.Millisecond)
			inFlight.Add(-1)
			return nil, nil
		})
	}
	if _, err := Run(context.Background(), r, r.Names(), 0, Options{Jobs: 2}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("peak concurrency %d exceeds Jobs=2", p)
	}
}

func TestRunEnvShared(t *testing.T) {
	type env struct{ store *Store }
	r := NewRegistry[env]()
	var computes atomic.Int64
	artifact := func(ctx context.Context, e env) (int, error) {
		return Memo(e.store, "shared", func() (int, error) {
			computes.Add(1)
			time.Sleep(5 * time.Millisecond)
			return 7, nil
		})
	}
	for _, n := range []string{"a", "b", "c", "d"} {
		r.MustRegister(n, nil, func(ctx context.Context, e env) (any, error) {
			return artifact(ctx, e)
		})
	}
	st, _ := memStore(0, nil)
	res, err := Run(context.Background(), r, r.Names(), env{st}, Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, re := range res {
		if re.Value != 7 {
			t.Fatalf("artifact = %v", re.Value)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("shared artifact computed %d times, want 1", n)
	}
}

func TestRegisterFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want Options
	}{
		{nil, Options{}},
		{[]string{"-jobs", "3"}, Options{Jobs: 3}},
		{[]string{"-timeout", "2s"}, Options{Timeout: 2 * time.Second}},
		{[]string{"-keep-going"}, Options{KeepGoing: true}},
	} {
		var o Options
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		o.RegisterFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if !reflect.DeepEqual(o, tc.want) {
			t.Fatalf("%v: options = %+v, want %+v", tc.args, o, tc.want)
		}
	}

	// Defaults come from the struct, so a command can keep going by
	// default, and the flags still override them.
	base := Options{Jobs: 4, Timeout: time.Second, KeepGoing: true}
	o := base
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	o.RegisterFlags(fs)
	for name, want := range map[string]string{
		"jobs": "4", "timeout": "1s", "keep-going": "true",
	} {
		if got := fs.Lookup(name).DefValue; got != want {
			t.Fatalf("-%s default = %q, want %q", name, got, want)
		}
	}
	if err := fs.Parse(nil); err != nil || !reflect.DeepEqual(o, base) {
		t.Fatalf("no flags changed the options: %+v (%v)", o, err)
	}
	if err := fs.Parse([]string{"-keep-going=false", "-jobs", "1"}); err != nil {
		t.Fatal(err)
	}
	if o.KeepGoing || o.Jobs != 1 {
		t.Fatalf("flags did not override the defaults: %+v", o)
	}
	if err := fs.Parse([]string{"-jobs", "x"}); err == nil {
		t.Fatal("non-numeric -jobs accepted")
	}
}
