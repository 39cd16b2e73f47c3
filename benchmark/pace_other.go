//go:build !linux

package main

import "time"

// pacer falls back to the runtime's timers where there is no timerfd; the
// generator then reports the lateness it causes (loadgen.late_p99_us).
type pacer struct{}

func newPacer() (*pacer, error)        { return &pacer{}, nil }
func (p *pacer) sleep(d time.Duration) { time.Sleep(d) }
func (p *pacer) close()                {}
