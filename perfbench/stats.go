package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// geomean returns the geometric mean of positive values (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mb converts bytes to mebibytes.
func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// totalAlloc returns the cumulative heap bytes allocated by the process.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// rssSampler records the peak resident set size of the process while a
// measured phase runs, by reading /proc/self/statm every 5 ms. Only its
// goroutine writes peak once started; finish reads it after the goroutine
// has exited.
type rssSampler struct {
	stop, done chan struct{}
	peak       int64
}

// startRSS returns the heap to the OS, so the phase starts from its live
// data, and starts sampling.
func startRSS() *rssSampler {
	debug.FreeOSMemory()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.sample()
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

// sample reads the current resident set and raises the peak.
func (s *rssSampler) sample() {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return
	}
	s.peak = max(s.peak, pages*int64(os.Getpagesize()))
}

// finish stops sampling and returns the phase's peak in MiB. Without
// /proc it returns the Go runtime's memory obtained from the OS.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	if s.peak > 0 {
		return mb(uint64(s.peak))
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return mb(m.Sys)
}

// mix is splitmix64: it derives well-spread seeds from a workload seed and
// a stream index.
func mix(seed int64, stream uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}
