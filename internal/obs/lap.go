package obs

import (
	"slices"
	"time"
)

// StageSample is the sampling period of the stage timers: an operation
// times its stages when a count it already keeps (a log slot's block
// count, a stripe's write generation, the zero-copy hit count) is a
// multiple of it, so one operation in 64 is timed and an unsampled one
// reads no clock.
const StageSample = 64

// Lap times the consecutive stages of one sampled operation without
// charging them for the timing. Each Lap call reads the clock to end its
// stage, observes the span less clockCost (the one clock read every span
// contains) and reads the clock again to start the next stage, so no
// stage pays for another's histogram update. The zero Lap is an
// unsampled operation: Lap is then one comparison, reading no clock and
// writing no shared memory.
type Lap struct{ last time.Duration } // 0: not sampled

// StartLap starts the laps of an operation that is sampled, and returns
// the zero Lap for one that is not.
func StartLap(sampled bool) Lap {
	if !sampled {
		return Lap{}
	}
	return Lap{max(Now(), 1)}
}

// Lap ends the stage that began at the previous reading and observes its
// span into h.
func (l *Lap) Lap(h *Histogram) {
	if l.last != 0 {
		l.lap(h)
	}
}

func (l *Lap) lap(h *Histogram) {
	h.ObserveNs(uint64(max(Now()-l.last-clockCost, 0)))
	l.last = max(Now(), 1)
}

// clockCost is the median span between two back-to-back Now calls on
// this host, measured once at start: what one clock read adds to the
// span that contains it.
var clockCost = calibrateClock()

func calibrateClock() time.Duration {
	var spans [255]time.Duration
	for i := range spans {
		a := Now()
		spans[i] = Now() - a
	}
	slices.Sort(spans[:])
	return spans[len(spans)/2]
}
