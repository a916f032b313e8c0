package main

import "time"

// The benchmark measures real elapsed time, so it must read the wall
// clock; the program under test never does (its simulation runs on
// vclock). Every wall-clock read and wait in the harness goes through the
// two helpers below, so the module-wide simdeterminism check still covers
// everything else.

// now reads the wall clock (monotonic).
func now() time.Time {
	//hpcvet:allow simdeterminism the benchmark times real requests, set-up and sweeps
	return time.Now()
}

// sleepUntil blocks until t, returning at once when t has passed. It paces
// the open-loop poller and nothing else.
func sleepUntil(t time.Time) {
	if d := t.Sub(now()); d > 0 {
		//hpcvet:allow simdeterminism the open-loop poller sends on a real schedule
		time.Sleep(d)
	}
}

// seconds is the wall time since t0 in seconds.
func seconds(t0 time.Time) float64 { return now().Sub(t0).Seconds() }
