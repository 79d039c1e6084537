package main

import (
	"sync"
	"time"
)

// readRate is serve-stream's open-loop reader rate, well below what the
// HTTP read path can serve.
const readRate = 500

// readRecord is one read of the open-loop reader.
type readRecord struct {
	due     time.Time
	latency time.Duration // from when the read was due until it completed
	lag     time.Duration // how late the read started after it was due
}

// service is the read's own time, from when it was sent until it completed.
func (r readRecord) service() time.Duration { return r.latency - r.lag }

// readLoop is the open-loop reader: read(i) is due at start + i/readRate
// whatever the previous reads did, so a stall delays every read scheduled
// behind it. It runs until done is closed and returns the successful reads
// and the errors of the failed ones.
func readLoop(start time.Time, done <-chan struct{}, read func(i int) error) ([]readRecord, []error) {
	var recs []readRecord
	var errs []error
	interval := time.Second / readRate
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		select {
		case <-done:
			return recs, errs
		case <-time.After(time.Until(due)):
		}
		sent := time.Now()
		if err := read(i); err != nil {
			errs = append(errs, err)
			continue
		}
		recs = append(recs, readRecord{due: due, latency: time.Since(due), lag: sent.Sub(due)})
	}
}

// startReader runs readLoop on its own goroutine. The returned stop ends
// the loop, waits for it, and returns its reads and errors.
func startReader(start time.Time, read func(i int) error) (stop func() ([]readRecord, []error)) {
	done := make(chan struct{})
	var recs []readRecord
	var errs []error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		recs, errs = readLoop(start, done, read)
	}()
	return func() ([]readRecord, []error) {
		close(done)
		wg.Wait()
		return recs, errs
	}
}
