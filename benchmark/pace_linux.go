package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer is a lane's alarm clock: a timerfd read through the Go netpoller.
// time.Sleep cannot pace an open loop at sub-millisecond gaps: when the
// process is mostly idle the runtime parks in epoll_wait, whose timeout is
// whole milliseconds, so a 150 us gap is sent about a millisecond late. A
// timerfd expiry is an fd event, which wakes epoll_wait at once, and the
// lane never sits in a blocking syscall holding a P.
type pacer struct {
	f   *os.File
	buf [8]byte
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800   // O_NONBLOCK
	tfdCloexec     = 0x80000 // O_CLOEXEC
)

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd")}, nil
}

// sleep blocks the calling goroutine for d.
func (p *pacer) sleep(d time.Duration) {
	// struct itimerspec{it_interval, it_value}, each a timespec of two longs.
	its := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.f.Fd(), 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0); errno != 0 {
		time.Sleep(d)
		return
	}
	p.f.Read(p.buf[:]) // returns at expiry; an error only means send now
}

func (p *pacer) close() { p.f.Close() }
