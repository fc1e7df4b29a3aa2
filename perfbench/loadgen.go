package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// execFn runs one request on load client c and checks its answer; a
// non-nil error is a failed or wrong answer.
type execFn func(ctx context.Context, c int, o op) error

// outcome is one finished request as the load generator saw it.
type outcome struct {
	o          op
	due, start time.Time
	end        time.Time
	err        error
}

// maxInFlight bounds the open loop's concurrent requests. When every
// slot is busy the generator waits, its lateness grows, and because
// requests are timed from their due time the wait is charged to every
// request scheduled behind the stall.
const maxInFlight = 256

// openLoop sends requests on the arrivals schedule for d, independent of
// how fast answers come back, spreading them over clients connections.
// observe sees every outcome (from many goroutines).
func openLoop(ctx context.Context, d time.Duration, gen func() op, arr *arrivals, clients, inFlight int, exec execFn, observe func(outcome)) {
	slots := make(chan struct{}, inFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; ; i++ {
		off := time.Duration(arr.next() * float64(time.Second))
		if off >= d || ctx.Err() != nil {
			break
		}
		due := start.Add(off)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		slots <- struct{}{}
		o := gen()
		c := i % clients
		wg.Add(1)
		go func() {
			defer wg.Done()
			sent := time.Now()
			err := exec(ctx, c, o)
			observe(outcome{o: o, due: due, start: sent, end: time.Now(), err: err})
			<-slots
		}()
	}
	wg.Wait()
}

// closedLoop runs one worker per client for d; each sends its next
// request only after the previous answer.
func closedLoop(ctx context.Context, d time.Duration, gens []func() op, exec execFn, observe func(outcome)) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := range gens {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop.Load() && ctx.Err() == nil {
				o := gens[c]()
				t0 := time.Now()
				err := exec(ctx, c, o)
				observe(outcome{o: o, due: t0, start: t0, end: time.Now(), err: err})
			}
		}(c)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
}
