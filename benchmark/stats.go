package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (rank q·(n−1)), the common default of numpy and R type 7.
// xs need not be sorted; it is not modified. NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples strictly above the q-quantile — the guide for
// whether a tail percentile rests on enough samples to mean anything.
func beyond(xs []float64, q float64) int {
	v := quantile(xs, q)
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// memSnap is the slice of runtime.MemStats the benchmark reports.
type memSnap struct {
	totalAlloc, mallocs uint64
	numGC               uint32
	heapAlloc           uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{totalAlloc: ms.TotalAlloc, mallocs: ms.Mallocs, numGC: ms.NumGC, heapAlloc: ms.HeapAlloc}
}

// liveHeapMB forces collections and returns the heap still in use, in MB
// (10^6 bytes). The second GC frees what sync.Pool caches kept alive
// through the first, so the figure does not depend on how many sweep
// runners ran since the last collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	return float64(readMem().heapAlloc) / 1e6
}

// clockTicks is USER_HZ, the unit of /proc/stat times. It is 100 on every
// Linux architecture Go supports.
const clockTicks = 100

// stealSeconds reads the machine-wide CPU time stolen by the hypervisor
// from the aggregate "cpu" line of /proc/stat (the eighth value). It
// returns 0 where /proc/stat is unavailable: steal is a description of the
// run, not an input to any metric.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		v, err := strconv.ParseFloat(fields[8], 64)
		if err != nil {
			return 0
		}
		return v / clockTicks
	}
	return 0
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a result line's values in insertion order.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("metric %s is %v", name, v))
	}
	m[name] = metric{Value: v, Unit: unit}
}
