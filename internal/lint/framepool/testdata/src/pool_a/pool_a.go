// Package pool_a is framepool-analyzer testdata: each ownership bug the
// analyzer must catch, seeded next to the idiomatic clean patterns the
// fabric actually uses (early-return guards, defer, per-iteration Get,
// privatizing copies) which must stay unflagged.
package pool_a

import "hydranet/internal/frame"

// SendFrame stands in for the fabric's ownership-transferring send: the
// callee releases the frame on every outcome.
func SendFrame(ifindex int, fb *frame.Buf) {
	fb.Release()
	_ = ifindex
}

type holder struct{ buf []byte }

var sink byte

// --- violations ---

func useAfterRelease(fb *frame.Buf) int {
	fb.Release()
	return fb.Len() // want "use of fb after Release"
}

func doubleRelease(fb *frame.Buf) {
	fb.Release()
	fb.Release() // want "double Release of fb"
}

func useAfterTransfer(fb *frame.Buf) int {
	SendFrame(0, fb)
	return fb.Len() // want "use of fb after ownership transfer to SendFrame"
}

func releaseAfterTransfer(fb *frame.Buf) {
	SendFrame(0, fb)
	fb.Release() // want "Release of fb after ownership transfer to SendFrame"
}

func condReleaseThenUse(fb *frame.Buf, drop bool) int {
	if drop {
		fb.Release()
	}
	return fb.Len() // want "use of fb after Release"
}

func derivedAfterRelease(fb *frame.Buf) byte {
	b := fb.Bytes()
	fb.Release()
	return b[0] // want "slice b derived from frame fb used after its Release"
}

func derivedAfterTransfer(fb *frame.Buf) {
	hdr := fb.Prepend(4)
	SendFrame(0, fb)
	hdr[0] = 1 // want "slice hdr derived from frame fb used after its ownership transfer to SendFrame"
}

func retainedStore(h *holder, fb *frame.Buf) {
	h.buf = fb.Bytes() // want "slice derived from frame fb stored in longer-lived state"
	fb.Release()
}

func leak(p *frame.Pool) {
	fb := p.Get(64) // want "fb obtained from Get is never released or handed off: pool leak"
	sink = fb.Bytes()[0]
}

func loopTransfer(fb *frame.Buf, n int) {
	for i := 0; i < n; i++ {
		SendFrame(0, fb) // want "transfer of fb to SendFrame inside a loop that never rebinds it"
	}
}

func loopRelease(fb *frame.Buf, n int) {
	for i := 0; i < n; i++ {
		fb.Release() // want "Release of fb inside a loop that never rebinds it"
	}
}

// --- control flow only the CFG sees through ---

// breakThenUse leaves the loop holding a released frame.
func breakThenUse(fb *frame.Buf, xs []int) int {
	for _, x := range xs {
		if x == 0 {
			fb.Release()
			break
		}
	}
	return fb.Len() // want "use of fb after Release"
}

// fallthroughUse releases in one case and falls into the next, which
// reads the frame.
func fallthroughUse(fb *frame.Buf, k int) int {
	switch k {
	case 0:
		fb.Release()
		fallthrough
	case 1:
		return fb.Len() // want "use of fb after Release"
	}
	return 0
}

// continueOuter releases and continues the outer loop: its next
// iteration reads the frame and can release it again.
func continueOuter(fb *frame.Buf, rows [][]int) {
outer:
	for _, row := range rows {
		_ = fb.Len() // want "use of fb after Release"
		for _, x := range row {
			if x == 0 {
				fb.Release() // want "Release of fb inside a loop that never rebinds it: the next iteration double-releases"
				continue outer
			}
		}
	}
}

// gotoUse jumps to done after a Release; the later Release is on a path
// that returns and must not be blamed.
func gotoUse(fb *frame.Buf, jump bool) int {
	if jump {
		fb.Release() // the Release the diagnostic cites
		goto done
	}
	fb.Release()
	return 0
done:
	return fb.Len() // want "use of fb after Release at .*pool_a.go:128:"
}

// guardedLoopRelease releases on some iterations and keeps looping: a
// later iteration may release the frame again.
func guardedLoopRelease(fb *frame.Buf, xs []int) {
	for _, x := range xs {
		if x == 0 {
			fb.Release() // want "Release of fb inside a loop that never rebinds it"
		}
	}
}

// closureAfterRelease creates a closure after the Release; it cannot run
// before it exists, so its read is a use after Release.
func closureAfterRelease(fb *frame.Buf) func() int {
	fb.Release()
	return func() int { return fb.Len() } // want "use of fb after Release"
}

// releaseReturnElseUse: the Release returns; only the else branch reads.
func releaseReturnElseUse(fb *frame.Buf, drop bool) int {
	if drop {
		fb.Release()
		return 0
	} else {
		return fb.Len()
	}
}

// useIfReleaseElse: the read and the Release are on disjoint branches.
func useIfReleaseElse(fb *frame.Buf, keep bool) int {
	n := 0
	if keep {
		n = fb.Len()
	} else {
		fb.Release()
	}
	return n
}

// releaseInLaterCase: a read in one case, the Release in another.
func releaseInLaterCase(fb *frame.Buf, k int) int {
	n := 0
	switch k {
	case 0:
		n = fb.Len()
	case 1:
		fb.Release()
	}
	return n
}

// --- clean patterns ---

// earlyReturnGuard is the fabric's pervasive drop idiom: the Release is
// confined to a block that returns, so the fall-through path still owns
// the frame.
func earlyReturnGuard(fb *frame.Buf, alive bool) int {
	if !alive {
		fb.Release()
		return 0
	}
	return fb.Len()
}

// elseIsolation: a Release in the then-branch cannot poison the else.
func elseIsolation(fb *frame.Buf, drop bool) int {
	if drop {
		fb.Release()
	} else {
		return fb.Len()
	}
	return 0
}

// caseIsolation: switch cases do not fall through in Go.
func caseIsolation(fb *frame.Buf, k int) int {
	switch k {
	case 0:
		fb.Release()
	case 1:
		return fb.Len()
	}
	return 0
}

// deferredRelease runs at function exit; every body use precedes it.
func deferredRelease(fb *frame.Buf) int {
	defer fb.Release()
	return fb.Len()
}

// cleanRoundTrip: get, use, release, in order.
func cleanRoundTrip(p *frame.Pool) byte {
	fb := p.Get(64)
	b := fb.Bytes()
	v := b[0]
	fb.Release()
	return v
}

// privatize copies the derived bytes before the frame goes away — the
// tcp-receive-path idiom.
func privatize(fb *frame.Buf) byte {
	b := fb.Bytes()
	cp := append([]byte(nil), b...)
	fb.Release()
	return cp[0]
}

// loopRebind gets a fresh frame each iteration, so the transfer is not
// loop-carried.
func loopRebind(p *frame.Pool, n int) {
	for i := 0; i < n; i++ {
		fb := p.Get(64)
		SendFrame(0, fb)
	}
}

// loopGuarded mixes a guarded drop with a transfer; the rebind keeps both
// per-iteration.
func loopGuarded(p *frame.Pool, n int, drop bool) {
	for i := 0; i < n; i++ {
		fb := p.Get(64)
		if drop {
			fb.Release()
			continue
		}
		SendFrame(0, fb)
	}
}

// loopVarRebind declares a fresh frame each iteration with var.
func loopVarRebind(p *frame.Pool, n int) {
	for i := 0; i < n; i++ {
		var fb = p.Get(64)
		SendFrame(0, fb)
	}
}

// privatizeInPlace rebinds the derived slice to a private copy before
// the Release.
func privatizeInPlace(fb *frame.Buf) byte {
	b := fb.Bytes()
	b = append([]byte(nil), b...)
	fb.Release()
	return b[0]
}

// returnHandoff passes ownership to the caller; not a leak.
func returnHandoff(p *frame.Pool) *frame.Buf {
	fb := p.Get(64)
	return fb
}

// releaseEachRange drains a batch through the range value: a range
// variable is freshly bound every iteration, so the Release never carries
// into the next one.
func releaseEachRange(bufs []*frame.Buf) {
	for _, fb := range bufs {
		fb.Release()
	}
}

// releaseEachRangeAssign is the assignment form (`fb` declared outside);
// the range clause still rebinds it per iteration.
func releaseEachRangeAssign(bufs []*frame.Buf) {
	var fb *frame.Buf
	for _, fb = range bufs {
		fb.Release()
	}
}

// rangeCarried ranges over something else entirely while releasing a
// variable the loop never rebinds: iteration two touches a dead frame.
func rangeCarried(fb *frame.Buf, xs []int) {
	for range xs {
		fb.Release() // want "Release of fb inside a loop that never rebinds it"
	}
}
