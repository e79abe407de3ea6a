package parallel

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16, 0} {
		got, err := Map(context.Background(), workers, 100, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapParallelMatchesSequential(t *testing.T) {
	fn := func(_ context.Context, i int) (string, error) {
		return fmt.Sprintf("point-%03d", i), nil
	}
	seq, err := Map(context.Background(), 1, 64, fn)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Map(context.Background(), 8, 64, fn)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel output diverged from sequential:\n%v\n%v", seq, par)
	}
}

func TestMapBoundedConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	_, err := Map(context.Background(), workers, 50, func(_ context.Context, i int) (int, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		cur.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent tasks, pool bound is %d", p, workers)
	}
}

func TestMapFirstErrorCancels(t *testing.T) {
	// Every task after the failing one parks until cancellation reaches
	// it, so a worker that picks one up cannot come back for another
	// before the failure cancels the pool. The dispenser hands out
	// indices in order, so at most workers-1 tasks past index 3 can start.
	const workers = 4
	boom := errors.New("boom")
	var after atomic.Int64
	_, err := Map(context.Background(), workers, 1000, func(ctx context.Context, i int) (int, error) {
		if i == 3 {
			return 0, fmt.Errorf("point %d: %w", i, boom)
		}
		if i > 3 {
			after.Add(1)
			<-ctx.Done()
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if n := after.Load(); n > workers-1 {
		t.Errorf("%d tasks after the failure started, want at most %d; cancellation is not propagating", n, workers-1)
	}
}

func TestMapSequentialStopsAtFirstError(t *testing.T) {
	var ran atomic.Int64
	_, err := Map(context.Background(), 1, 10, func(_ context.Context, i int) (int, error) {
		ran.Add(1)
		if i == 2 {
			return 0, errors.New("stop")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := ran.Load(); n != 3 {
		t.Fatalf("sequential path ran %d tasks after error at index 2, want exactly 3", n)
	}
}

func TestMapPanicCapture(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Map(context.Background(), workers, 8, func(_ context.Context, i int) (int, error) {
			if i == 5 {
				panic("kaboom")
			}
			return i, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want PanicError", workers, err)
		}
		if pe.Index != 5 || pe.Value != "kaboom" || pe.Stack == "" {
			t.Fatalf("workers=%d: PanicError = %+v", workers, pe)
		}
	}
}

func TestMapParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		_, err = Map(ctx, 2, 1000, func(ctx context.Context, i int) (int, error) {
			started.Add(1)
			select {
			case <-ctx.Done():
			case <-time.After(50 * time.Millisecond):
			}
			return i, nil
		})
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Map did not return after parent cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n > 10 {
		t.Errorf("%d tasks started after cancellation", n)
	}
}

func TestMapEdgeCases(t *testing.T) {
	if got, err := Map(context.Background(), 4, 0, func(_ context.Context, i int) (int, error) { return i, nil }); err != nil || len(got) != 0 {
		t.Fatalf("n=0: got %v, %v", got, err)
	}
	if _, err := Map(context.Background(), 4, -1, func(_ context.Context, i int) (int, error) { return i, nil }); err == nil {
		t.Fatal("n=-1: expected error")
	}
	if d := DefaultWorkers(); d < 1 {
		t.Fatalf("DefaultWorkers() = %d", d)
	}
}
