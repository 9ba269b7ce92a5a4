package main

import "time"

// The wall-clock figures are read from a run cut into windows, and each is
// the median of its per-window values: on a shared host, neighbours steal
// CPU in bursts, and a burst then moves a few windows, not the figure.

// fetchWindow is the length of one fetch window; it holds thousands of
// batches.
const fetchWindow = 500 * time.Millisecond

// trainWindowSteps is the number of training steps in one train window.
const trainWindowSteps = 25

// windowStat is one window's throughput and latency percentiles; the run
// record keeps every window.
type windowStat struct {
	Rate float64 `json:"samples_per_s"`
	P50  float64 `json:"p50_ms"`
	P90  float64 `json:"p90_ms"`
}

// timeWindows cuts a closed-loop phase into windows of length win by batch
// completion time; ends[i] and lats[i] describe batch i of perBatch
// samples. A phase shorter than two windows is one window.
func timeWindows(ends, lats []time.Duration, perBatch int, elapsed, win time.Duration) []windowStat {
	n := int(elapsed / win)
	if n < 2 {
		n, win = 1, elapsed
	}
	buckets := make([][]time.Duration, n)
	for i, end := range ends {
		if w := int(end / win); w < n {
			buckets[w] = append(buckets[w], lats[i])
		}
	}
	out := make([]windowStat, n)
	for i, b := range buckets {
		out[i] = windowStat{
			Rate: float64(len(b)*perBatch) / win.Seconds(),
			P50:  ms(percentile(b, 50)),
			P90:  ms(percentile(b, 90)),
		}
	}
	return out
}

// stepWindows cuts a sequence of step durations into windows of size
// consecutive steps, each step consuming perStep samples. Fewer steps than
// one window make one window.
func stepWindows(steps []time.Duration, perStep, size int) []windowStat {
	if size > len(steps) {
		size = len(steps)
	}
	var out []windowStat
	for lo := 0; size > 0 && lo+size <= len(steps); lo += size {
		w := steps[lo : lo+size]
		var sum time.Duration
		for _, d := range w {
			sum += d
		}
		out = append(out, windowStat{
			Rate: float64(size*perStep) / sum.Seconds(),
			P50:  ms(percentile(w, 50)),
			P90:  ms(percentile(w, 90)),
		})
	}
	return out
}

// setWindowed records the medians over ws of window throughput and window
// latency percentiles.
func setWindowed(m metricSet, ws []windowStat) {
	rates := make([]float64, len(ws))
	p50s := make([]float64, len(ws))
	p90s := make([]float64, len(ws))
	for i, w := range ws {
		rates[i], p50s[i], p90s[i] = w.Rate, w.P50, w.P90
	}
	m.set("samples_per_s", "1/s", median(rates))
	m.set("batch_p50_ms", "ms", median(p50s))
	m.set("batch_p90_ms", "ms", median(p90s))
}
