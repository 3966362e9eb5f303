package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between closest ranks. It returns 0 for an empty slice.
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

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counters are deterministic counts: equal inputs give equal values on
// every run, so two passes (or two processes) with one seed must agree.
type counters map[string]uint64

func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

func (c counters) f(k string) float64 { return float64(c[k]) }

// memSnap is the slice of runtime.MemStats the benchmark differences
// around a timed phase: allocations, allocated bytes, GC cycles and GC
// pause time.
type memSnap struct {
	mallocs, bytes, gcs, pauseNs uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{m.Mallocs, m.TotalAlloc, uint64(m.NumGC), m.PauseTotalNs}
}

// since is the runtime's work between snapshot a and b.
func (b memSnap) since(a memSnap) memSnap {
	return memSnap{b.mallocs - a.mallocs, b.bytes - a.bytes, b.gcs - a.gcs, b.pauseNs - a.pauseNs}
}

// heapObjects is the heap the program holds: live objects plus dead ones
// the collector has not freed yet. Reading it neither stops the world nor
// allocates. Only the goroutine driving a pass reads it.
var heapObjects = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}

func heapInUse() uint64 {
	metrics.Read(heapObjects)
	return heapObjects[0].Value.Uint64()
}
