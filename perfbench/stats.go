package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"syscall"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// nsQuantile is quantile over nanosecond samples, returned in unit (1e3 for
// µs, 1e6 for ms).
func nsQuantile(ns []int64, q, unit float64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v) / unit
	}
	return quantile(xs, q)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// schedLatencies reads the runtime's histogram of time goroutines spent
// runnable before running: /sched/latencies:seconds.
func schedLatencies() *metrics.Float64Histogram {
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	return s[0].Value.Float64Histogram()
}

// histDeltaQuantile returns the q-quantile, in µs, of the samples added
// between two reads of the same runtime histogram (bucket midpoints).
func histDeltaQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	if before == nil || after == nil {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range delta {
		seen += c
		if seen >= target && c > 0 {
			lo, hi := after.Buckets[i], after.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			return (lo + hi) / 2 * 1e6
		}
	}
	return 0
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
