package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// groupTrace is what one run of groupScript observes: each domain's
// execution order, and for every coordinator event how many events of each
// domain had run before it (which pins its place in the merged order).
type groupTrace struct {
	doms       [2][]string
	coord      []string
	midFired   uint64
	midPending int
	fired      uint64
	pending    int
	midNow     time.Duration
}

// driver is what Scheduler and Group have in common.
type driver interface {
	RunUntil(time.Duration)
	Run()
	Now() time.Duration
	Fired() uint64
	Pending() int
}

// groupScript schedules one fixed script on two domain schedulers and a
// coordinator, runs it to 12ms and then to idle, and records the result. A
// serial run passes the same scheduler for all three and as the driver.
func groupScript(dom [2]*Scheduler, coord *Scheduler, drv driver) groupTrace {
	var tr groupTrace
	ms := time.Millisecond
	onDom := func(d int, label string) func() {
		return func() { tr.doms[d] = append(tr.doms[d], fmt.Sprintf("%s@%v", label, dom[d].Now())) }
	}
	onCoord := func(label string, then func()) func() {
		return func() {
			tr.coord = append(tr.coord, fmt.Sprintf("%s@%v after %d/%d", label, coord.Now(), len(tr.doms[0]), len(tr.doms[1])))
			if then != nil {
				then()
			}
		}
	}

	// c1 shares its (10ms, 0) key with d0-tie; scheduled first, it runs
	// first, and the Group must put the window edge right before d0-tie.
	coord.At(10*ms, onCoord("c1", func() { dom[1].At(12*ms, onDom(1, "d1-from-c1")) }))
	dom[0].At(10*ms, onDom(0, "d0-tie"))
	dom[0].At(3*ms, func() {
		onDom(0, "d0-a")()
		dom[0].After(7*ms, onDom(0, "d0-child")) // (10ms, 3ms): after c1 and d0-tie
	})
	dom[1].At(5*ms, onDom(1, "d1-a"))
	dom[1].At(10*ms, onDom(1, "d1-tie"))
	coord.At(7*ms, onCoord("c2", func() { coord.After(8*ms, onCoord("c3", nil)) }))
	cancelled := coord.At(8*ms, onCoord("cancelled", nil))
	cancelled.Cancel()
	dom[1].At(30*ms, onDom(1, "d1-late"))

	drv.RunUntil(12 * ms)
	tr.midNow = drv.Now()
	tr.midFired, tr.midPending = drv.Fired(), drv.Pending()
	// Scheduled between runs, c4 stamps the coordinator clock as its birth:
	// it must read 12ms, like the serial clock, to tie with d0-after.
	coord.After(ms, onCoord("c4", nil))
	dom[0].After(ms, onDom(0, "d0-after"))
	drv.Run()
	tr.fired, tr.pending = drv.Fired(), drv.Pending()
	return tr
}

// TestGroupMatchesSerial runs one script on a serial Scheduler and on a
// two-domain Group at 1 and 2 workers: execution order, Fired and Pending
// must agree.
func TestGroupMatchesSerial(t *testing.T) {
	s := NewScheduler(1)
	want := groupScript([2]*Scheduler{s, s}, s, s)
	if want.fired != 12 || want.pending != 0 || want.midFired != 8 || want.midPending != 2 {
		t.Fatalf("serial script: %+v", want)
	}

	for _, workers := range []int{1, 2} {
		doms := [2]*Scheduler{NewScheduler(1), NewScheduler(2)}
		g := NewGroup(doms[:], 4*time.Millisecond, workers)
		if got := groupScript(doms, g.Coordinator(), g); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}
