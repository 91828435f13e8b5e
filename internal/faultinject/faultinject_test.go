package faultinject

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestNilPlanNeverFires(t *testing.T) {
	var p *Plan
	for _, pt := range Points() {
		if err := p.Invoke(pt); err != nil {
			t.Fatalf("nil plan fired at %s: %v", pt, err)
		}
	}
	if got := p.Fired(); got != nil {
		t.Fatalf("nil plan reports fired arms: %v", got)
	}
}

func TestErrorArmFiresExactlyOnce(t *testing.T) {
	p := New(Arm{Point: PointIterNext, Kind: KindError, After: 3})
	for i := 1; i <= 10; i++ {
		err := p.Invoke(PointIterNext)
		if i == 3 {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("invocation 3: want ErrInjected, got %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("invocation %d: unexpected error %v", i, err)
		}
	}
	if got := len(p.Fired()); got != 1 {
		t.Fatalf("want 1 fired arm, got %d", got)
	}
}

func TestPanicArm(t *testing.T) {
	p := New(Arm{Point: PointIterNext, Kind: KindPanic})
	defer func() {
		if recover() == nil {
			t.Fatal("panic arm did not panic")
		}
		// After firing, the point is inert.
		if err := p.Invoke(PointIterNext); err != nil {
			t.Fatalf("fired panic arm returned error on re-invoke: %v", err)
		}
	}()
	p.Invoke(PointIterNext)
}

func TestDelayArmSleepsAndReturnsNil(t *testing.T) {
	p := New(Arm{Point: PointIterOpen, Kind: KindDelay, Delay: 5 * time.Millisecond})
	start := time.Now()
	if err := p.Invoke(PointIterOpen); err != nil {
		t.Fatalf("delay arm returned error: %v", err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("delay arm slept only %v", d)
	}
}

func TestSeededIsDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a, b := Seeded(seed).Arms(), Seeded(seed).Arms()
		if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
			t.Fatalf("seed %d: non-deterministic arms %v vs %v", seed, a, b)
		}
		if a[0].After < 1 {
			t.Fatalf("seed %d: After below 1: %+v", seed, a[0])
		}
	}
}

func TestSeededCoversAllPointsAndKinds(t *testing.T) {
	points := map[string]bool{}
	kinds := map[Kind]bool{}
	for seed := int64(0); seed < 200; seed++ {
		a := Seeded(seed).Arms()[0]
		points[a.Point] = true
		kinds[a.Kind] = true
	}
	for _, pt := range Points() {
		if !points[pt] {
			t.Errorf("200 seeds never armed point %s", pt)
		}
	}
	for _, k := range []Kind{KindError, KindPanic, KindDelay} {
		if !kinds[k] {
			t.Errorf("200 seeds never armed kind %s", k)
		}
	}
}

func TestConcurrentInvokeFiresOnce(t *testing.T) {
	p := New(Arm{Point: PointIterNext, Kind: KindError, After: 8})
	var mu sync.Mutex
	var fired int
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := p.Invoke(PointIterNext); err != nil {
					mu.Lock()
					fired++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if fired != 1 {
		t.Fatalf("arm fired %d times under concurrency, want 1", fired)
	}
}
