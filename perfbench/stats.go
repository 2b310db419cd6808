package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of samples by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it. samples is sorted in place. An empty slice yields 0.
func percentile(samples []int64, p float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(math.Ceil(p / 100 * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(samples) {
		rank = len(samples)
	}
	return samples[rank-1]
}

// mean returns the arithmetic mean of samples (0 for none).
func mean(samples []int64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += float64(v)
	}
	return sum / float64(len(samples))
}

// medianDuration returns the median of ds (the lower middle for an even
// count, so the result is always one of the measured values).
func medianDuration(ds []time.Duration) time.Duration {
	ns := make([]int64, len(ds))
	for i, d := range ds {
		ns[i] = int64(d)
	}
	return time.Duration(percentile(ns, 50))
}

// schedule is an open-loop send plan: slot i is due at start + i*period.
type schedule struct {
	start  time.Time
	period time.Duration
}

// due returns when slot i should be sent.
func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(i) * s.period)
}

// lateness is how far behind its schedule a send ran; a send that went
// out early (the clock read before the due time) counts as on time.
func lateness(due, sent time.Time) time.Duration {
	if d := sent.Sub(due); d > 0 {
		return d
	}
	return 0
}

func ms(ns float64) float64 { return ns / 1e6 }
