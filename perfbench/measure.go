package main

import (
	"hyperq/internal/qlang/qval"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// procSample is one reading of the process counters a window is measured
// between.
type procSample struct {
	at         time.Time
	cpu        time.Duration // user+sys, getrusage
	allocBytes uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds, as the Go runtime accounts it
}

var procMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(procMetrics))
	copy(s, procMetrics)
	metrics.Read(s)
	return procSample{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// heapSampler tracks the peak live heap — the heap marked live by the
// latest collection — while running.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapSampleEvery = 10 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// window is what one measured interval, or a set of merged ones,
// produced.
type window struct {
	elapsed    time.Duration
	allocBytes uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds, as the Go runtime accounts it
	peakHeap   uint64

	// reader side (every QIPC request, or the hybrid reader): each
	// completed request's round trip and when it completed
	lat        []time.Duration
	done       []time.Time
	slices     []slice
	respBytes  int64
	attempted  int
	failed     int
	firstError string

	// hybrid writer side
	writeLat    []time.Duration
	late        []time.Duration
	ackRows     int
	walBytes    int64
	checkpoints int
	diskBytes   int64
}

func (w *window) completed() int { return len(w.lat) }

// tally merges one worker's results. Callers serialise calls.
func (w *window) tally(o *opLog) {
	w.lat = append(w.lat, o.lat...)
	w.done = append(w.done, o.done...)
	w.respBytes += o.respBytes
	w.attempted += o.attempted
	w.failed += o.failed
	if w.firstError == "" {
		w.firstError = o.firstError
	}
}

// opLog is one worker's record of its operations.
type opLog struct {
	lat        []time.Duration
	done       []time.Time
	respBytes  int64
	attempted  int
	failed     int
	firstError string
}

// ok records a completed request: its round trip and response size.
func (o *opLog) ok(rt time.Duration, respBytes int) {
	o.lat = append(o.lat, rt)
	o.done = append(o.done, time.Now())
	o.respBytes += int64(respBytes)
}

func (o *opLog) fail(err error) {
	o.failed++
	if o.firstError == "" {
		o.firstError = err.Error()
	}
}

// windowSlices is how many equal slices a measured interval is cut into.
// The end-to-end rates, CPU and latency medians are medians over the
// slices, so a stall of the host that covers fewer than half of them does
// not move the result.
const windowSlices = 10

// slice is what one slice of a measured interval produced.
type slice struct {
	qps     float64       // requests completed in the slice per second
	cpuPerQ time.Duration // process CPU in the slice per completed request
	p50     time.Duration // median round trip of the slice's requests
	p90     time.Duration
	n       int // requests completed in the slice
}

// measure runs body over a window of length d and adds it, with the
// process counters around it, to w. body gets the deadline and merges its
// workers' logs into the window.
func (w *window) measure(d time.Duration, body func(deadline time.Time, w *window)) {
	runtime.GC() // start every window from the same collected heap
	hs := startHeapSampler()
	first := len(w.done)
	before := sampleProc()
	// the process counters at each slice boundary inside the window
	marks := make(chan []procSample, 1)
	go func() {
		var ms []procSample
		for k := 1; k < windowSlices; k++ {
			time.Sleep(time.Until(before.at.Add(d * time.Duration(k) / windowSlices)))
			ms = append(ms, sampleProc())
		}
		marks <- ms
	}()
	body(before.at.Add(d), w)
	bounds := append([]procSample{before}, <-marks...)
	after := sampleProc()
	bounds = append(bounds, after)
	w.peakHeap = max(w.peakHeap, hs.finish())
	w.elapsed += after.at.Sub(before.at)
	w.allocBytes += after.allocBytes - before.allocBytes
	w.gcCPU += after.gcCPU - before.gcCPU
	w.totalCPU += after.totalCPU - before.totalCPU
	for k := 1; k < len(bounds); k++ {
		a, b := bounds[k-1], bounds[k]
		var lat []time.Duration
		for i := first; i < len(w.done); i++ {
			if !w.done[i].Before(a.at) && w.done[i].Before(b.at) {
				lat = append(lat, w.lat[i])
			}
		}
		sl := slice{qps: float64(len(lat)) / b.at.Sub(a.at).Seconds(), n: len(lat)}
		if len(lat) > 0 {
			sl.cpuPerQ = (b.cpu - a.cpu) / time.Duration(len(lat))
			sl.p50, sl.p90 = quantile(lat, 0.50), quantile(lat, 0.90)
		}
		w.slices = append(w.slices, sl)
	}
}

// checkFn checks one response: its decoded value and raw frame.
type checkFn func(v qval.Value, raw []byte) error

// closedLoop runs one goroutine per client until the deadline; each sends
// next's query, waits for the answer and checks it. A failed or wrong answer
// counts against attempts.
func closedLoop(clients []*qclient, deadline time.Time, w *window, next func(client int) (string, checkFn)) {
	var wg sync.WaitGroup
	logs := make([]opLog, len(clients))
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *qclient) {
			defer wg.Done()
			o := &logs[i]
			for time.Now().Before(deadline) {
				q, check := next(i)
				o.attempted++
				v, raw, rt, err := c.query(q)
				if err == nil {
					err = check(v, raw)
				}
				if err != nil {
					o.fail(err)
					continue
				}
				o.ok(rt, len(raw))
			}
		}(i, c)
	}
	wg.Wait()
	for i := range logs {
		w.tally(&logs[i])
	}
}

// quantile returns the q-quantile (0..1) of ds by the nearest-rank method.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(q*float64(len(s))+0.999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
