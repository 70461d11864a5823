package main

import (
	"sync"
	"time"
)

// Host speed on a shared machine drifts by a third or more over minutes
// with the load of other tenants, and a vCPU may lose time to them
// outright. A fixed calibration kernel therefore runs
// before every simulation, and the run's end-to-end host times are rescaled
// by how fast the kernel ran: a time t measured while the kernel's median
// time was k is reported as t * calibrationRef / k. The kernel touches no
// simulator code, so a change to the simulator moves the calibrated times
// exactly as it moves the raw ones, while drift that slows the kernel and
// the simulation alike cancels.

// calibrationRef is about the kernel's time on the host the benchmark was
// defined on (2 vCPUs at 2.0 GHz), so calibrated seconds read close to host
// seconds there.
const calibrationRef = 2500 * time.Microsecond

// calTable is the kernel's 4 MiB working set, larger than the caches the
// simulator's hot data fits in, so the kernel feels memory contention as
// the simulator does.
var calTable = func() []uint64 {
	t := make([]uint64, 1<<19)
	for i := range t {
		t[i] = uint64(i) * 0x9e3779b97f4a7c15 // touch every page
	}
	return t
}()

// calibrate runs the kernel once on each of threads goroutines at the same
// time and returns the host time until all finish. The benchmark passes
// GOMAXPROCS: the pods' worker threads and every workload's garbage
// collector keep all the process's CPUs busy, and a host that slows any of
// them slows the simulation.
func calibrate(threads int) time.Duration {
	threads = max(threads, 1)
	for len(calStates) < threads {
		calStates = append(calStates, newCalState())
	}
	start := time.Now()
	if threads <= 1 {
		calStates[0].run()
		return time.Since(start)
	}
	var wg sync.WaitGroup
	wg.Add(threads)
	for i := 0; i < threads; i++ {
		go func(st *calState) {
			defer wg.Done()
			st.run()
		}(calStates[i])
	}
	wg.Wait()
	return time.Since(start)
}

// calState is one kernel thread's scratch space, allocated once.
type calState struct {
	heap []uint64
	m    map[uint64]uint64
	sum  uint64
}

var calStates []*calState

func newCalState() *calState {
	st := &calState{heap: make([]uint64, 0, 1024), m: make(map[uint64]uint64, 1024)}
	for k := uint64(0); k < 1024; k++ {
		st.m[k] = k
	}
	return st
}

// run is the kernel: integer binary-heap churn and map updates, like the
// scheduler and the stacks' tables, then random reads over calTable. It
// allocates nothing, so the garbage a simulation leaves does not slow it.
func (st *calState) run() {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	heap := st.heap[:0]
	var sum uint64
	for i := 0; i < 10000; i++ {
		k := next()
		heap = append(heap, k)
		for j := len(heap) - 1; j > 0; {
			p := (j - 1) / 2
			if heap[p] <= heap[j] {
				break
			}
			heap[p], heap[j] = heap[j], heap[p]
			j = p
		}
		if len(heap) > 512 {
			sum += heap[0]
			last := len(heap) - 1
			heap[0] = heap[last]
			heap = heap[:last]
			for j := 0; ; {
				l := 2*j + 1
				if l >= len(heap) {
					break
				}
				if r := l + 1; r < len(heap) && heap[r] < heap[l] {
					l = r
				}
				if heap[j] <= heap[l] {
					break
				}
				heap[j], heap[l] = heap[l], heap[j]
				j = l
			}
		}
		st.m[k&1023] += k
		sum += st.m[(k>>10)&1023]
	}
	for i := 0; i < 100000; i++ {
		sum += calTable[next()&(uint64(len(calTable))-1)]
	}
	st.sum = sum
}
