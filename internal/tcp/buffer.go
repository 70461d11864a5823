package tcp

import "sort"

// sendBuffer holds the outbound byte stream: acknowledged bytes are trimmed
// from the front; the application appends at the back.
type sendBuffer struct {
	base    Seq // sequence number of data[0]
	data    []byte
	dataArr []byte // data's backing array (see fifoRoom)
	cap     int

	// marking preserves application write boundaries: when set, each
	// append records the end of the write, and bytesFrom never returns a
	// chunk crossing a mark. This models the paper's measurement setup,
	// where batching of small segments was turned off so that every ttcp
	// write travels as its own segment.
	marking  bool
	marks    []Seq // ends of writes, ascending
	marksArr []Seq // marks' backing array
}

func newSendBuffer(capacity int) *sendBuffer {
	return &sendBuffer{cap: capacity}
}

// setBase initializes the starting sequence number (ISS+1).
func (b *sendBuffer) setBase(s Seq) { b.base = s }

// append stores as much of p as fits and returns how many bytes it took.
func (b *sendBuffer) append(p []byte) int {
	n := b.cap - len(b.data)
	if n <= 0 {
		return 0
	}
	if n > len(p) {
		n = len(p)
	}
	b.data, b.dataArr = fifoRoom(b.data, b.dataArr, n)
	b.data = append(b.data, p[:n]...)
	if b.marking && n > 0 {
		b.marks, b.marksArr = fifoRoom(b.marks, b.marksArr, 1)
		b.marks = append(b.marks, b.endSeq())
	}
	return n
}

// ackTo discards bytes below seq (they were acknowledged).
func (b *sendBuffer) ackTo(seq Seq) {
	d := seq.Diff(b.base)
	if d <= 0 {
		return
	}
	if d > len(b.data) {
		d = len(b.data)
	}
	b.data = b.data[d:]
	b.base = b.base.Add(d)
	for len(b.marks) > 0 && b.marks[0].LEQ(b.base) {
		b.marks = b.marks[1:]
	}
}

// bytesFrom returns up to maxLen bytes of the stream starting at seq, or nil
// if seq is outside the buffered range. With marking enabled the chunk never
// crosses a write boundary.
func (b *sendBuffer) bytesFrom(seq Seq, maxLen int) []byte {
	off := seq.Diff(b.base)
	if off < 0 || off >= len(b.data) {
		return nil
	}
	end := off + maxLen
	if end > len(b.data) {
		end = len(b.data)
	}
	if b.marking {
		// marks ascend, so the first one past seq bounds the chunk.
		if i := sort.Search(len(b.marks), func(i int) bool { return b.marks[i].GT(seq) }); i < len(b.marks) {
			if boundary := b.marks[i].Diff(b.base); boundary < end {
				end = boundary
			}
		}
	}
	return b.data[off:end]
}

// fifoRoom makes room for n more elements at the end of q, a FIFO window
// that is consumed from the front by reslicing, and returns the window and
// its backing array arr. When q's array has no room past its end, the
// unread elements first slide to the front of arr, which is replaced by one
// twice the needed size if it is shorter than that. A FIFO whose length
// stays bounded so keeps reusing one array, and each slide is followed by at
// least as much room as it copied. Appending up to n elements to the
// returned window never reallocates.
func fifoRoom[T any](q, arr []T, n int) (window, backing []T) {
	need := len(q) + n
	if need <= cap(q) {
		return q, arr
	}
	if cap(arr) < 2*need {
		arr = make([]T, 0, 2*need)
	}
	return append(arr[:0], q...), arr[:0]
}

// endSeq returns the sequence number one past the last buffered byte.
func (b *sendBuffer) endSeq() Seq { return b.base.Add(len(b.data)) }

func (b *sendBuffer) len() int  { return len(b.data) }
func (b *sendBuffer) free() int { return b.cap - len(b.data) }

// oooRange is a received, not-yet-deposited run of bytes. data initially
// aliases the delivered segment's payload (which in turn aliases a pooled
// fabric frame); own is set once the range has been copied into private
// memory because it outlived the delivery event, and is that copy's whole
// array (data may be trimmed from its front).
type oooRange struct {
	seq  Seq
	data []byte
	own  []byte
}

// receiver tracks the inbound stream: out-of-order (and deposit-gated)
// ranges, the deposit cursor rcvNxt, and the app-readable socket buffer.
//
// In HydraNet-FT terms (paper Section 4.3), "depositing byte k into the
// socket buffer" is the transition from pending to deposited: the ACK
// number a replica advertises is exactly rcvNxt, so gating deposits gates
// acknowledgments.
type receiver struct {
	rcvNxt    Seq // next byte to deposit == ACK number we advertise
	pending   []oooRange
	spare     [][]byte // arrays of deposited private copies, for reuse
	deposited []byte
	depArr    []byte // deposited's backing array (see fifoRoom)
	cap       int
	finSeq    Seq // sequence number of a received FIN, valid if finSet
	finSet    bool
}

func newReceiver(capacity int) *receiver {
	return &receiver{cap: capacity}
}

// setNext initializes the deposit cursor (peer ISS+1).
func (r *receiver) setNext(s Seq) { r.rcvNxt = s }

// window returns the receive window to advertise.
func (r *receiver) window() int {
	w := r.cap - len(r.deposited)
	if w < 0 {
		return 0
	}
	return w
}

// insert stores segment data for later deposit, trimming anything already
// below rcvNxt. Overlapping ranges are kept as-is (deposit handles overlap).
// It reports whether any byte of the segment was new (at or above rcvNxt and
// not wholly duplicate).
func (r *receiver) insert(seq Seq, data []byte) bool {
	if len(data) == 0 {
		return false
	}
	// Trim below rcvNxt.
	if d := r.rcvNxt.Diff(seq); d > 0 {
		if d >= len(data) {
			return false // entirely old
		}
		data = data[d:]
		seq = seq.Add(d)
	}
	// Reject if entirely beyond the window... the caller enforces windows;
	// here we only bound memory: drop data beyond cap past rcvNxt.
	if off := seq.Diff(r.rcvNxt); off > r.cap {
		return false
	}
	// Check whether fully covered by existing pending ranges.
	covered := 0
	for _, rg := range r.pending {
		if rg.seq.LEQ(seq) && rg.seq.Add(len(rg.data)).GEQ(seq.Add(len(data))) {
			covered++
			break
		}
	}
	// pending is sorted by seq; place the new range after every range that
	// does not start above it, walking from the tail (arrivals are mostly
	// in order, so the walk is usually empty).
	i := len(r.pending)
	r.pending = append(r.pending, oooRange{})
	for ; i > 0 && seq.LT(r.pending[i-1].seq); i-- {
		r.pending[i] = r.pending[i-1]
	}
	r.pending[i] = oooRange{seq: seq, data: data}
	return covered == 0
}

// privatize copies every pending range that still aliases the arriving
// frame's payload. It runs once per segment arrival, after all synchronous
// processing: the common case — an in-order segment deposited in the same
// event — never pays for a copy, only out-of-order and deposit-gated
// (ft-TCP) ranges that genuinely outlive the frame do.
func (r *receiver) privatize() {
	for i := range r.pending {
		rg := &r.pending[i]
		if rg.own == nil {
			rg.own = append(r.takeSpare(len(rg.data)), rg.data...)
			rg.data = rg.own
		}
	}
}

// takeSpare returns an empty slice over a spare array that holds at least n
// bytes, or nil when there is none.
func (r *receiver) takeSpare(n int) []byte {
	for i := len(r.spare) - 1; i >= 0; i-- {
		if b := r.spare[i]; cap(b) >= n {
			last := len(r.spare) - 1
			r.spare[i] = r.spare[last]
			r.spare[last] = nil
			r.spare = r.spare[:last]
			return b
		}
	}
	return nil
}

// contiguousEnd returns the highest sequence number reachable from rcvNxt
// through pending ranges without a hole.
func (r *receiver) contiguousEnd() Seq {
	end := r.rcvNxt
	for _, rg := range r.pending {
		if rg.seq.GT(end) {
			break
		}
		if e := rg.seq.Add(len(rg.data)); e.GT(end) {
			end = e
		}
	}
	return end
}

// depositUpTo moves contiguous pending bytes in [rcvNxt, limit) into the
// socket buffer, bounded by buffer capacity. It returns the number of bytes
// deposited. Passing rcvNxt.Add(cap+1) or more effectively means "no limit".
func (r *receiver) depositUpTo(limit Seq) int {
	end := r.contiguousEnd()
	if limit.LT(end) {
		end = limit
	}
	want := end.Diff(r.rcvNxt)
	if want <= 0 {
		return 0
	}
	if room := r.cap - len(r.deposited); want > room {
		want = room
	}
	if want <= 0 {
		return 0
	}
	// Grow the socket buffer by want bytes and fill them in place.
	r.deposited, r.depArr = fifoRoom(r.deposited, r.depArr, want)
	base := len(r.deposited)
	r.deposited = r.deposited[:base+want]
	out := r.deposited[base:]
	clear(out) // a byte no range covers reads 0, never stale buffer contents
	target := r.rcvNxt.Add(want)
	for _, rg := range r.pending {
		// Copy the overlap of rg with [rcvNxt, target).
		start := MaxSeq(rg.seq, r.rcvNxt)
		stop := MinSeq(rg.seq.Add(len(rg.data)), target)
		if stop.LEQ(start) {
			continue
		}
		srcOff := start.Diff(rg.seq)
		dstOff := start.Diff(r.rcvNxt)
		n := stop.Diff(start)
		copy(out[dstOff:dstOff+n], rg.data[srcOff:srcOff+n])
	}
	r.rcvNxt = target
	// Drop pending ranges now wholly below rcvNxt; trim partial ones.
	kept := r.pending[:0]
	for _, rg := range r.pending {
		e := rg.seq.Add(len(rg.data))
		if e.LEQ(r.rcvNxt) {
			if rg.own != nil {
				r.spare = append(r.spare, rg.own[:0])
			}
			continue
		}
		if rg.seq.LT(r.rcvNxt) {
			cut := r.rcvNxt.Diff(rg.seq)
			rg.data = rg.data[cut:]
			rg.seq = r.rcvNxt
		}
		kept = append(kept, rg)
	}
	r.pending = kept
	return want
}

// read drains up to len(p) deposited bytes into p.
func (r *receiver) read(p []byte) int {
	n := copy(p, r.deposited)
	r.deposited = r.deposited[n:]
	return n
}

// readable returns the number of deposited, unread bytes.
func (r *receiver) readable() int { return len(r.deposited) }

// noteFIN records the sequence number a FIN occupies. The FIN is consumed
// (acknowledged) only once all data before it has been deposited.
func (r *receiver) noteFIN(seq Seq) {
	r.finSeq = seq
	r.finSet = true
}

// finReady reports whether the FIN is the next thing to consume.
func (r *receiver) finReady() bool {
	return r.finSet && r.rcvNxt == r.finSeq
}

// consumeFIN advances rcvNxt over the FIN.
func (r *receiver) consumeFIN() {
	r.rcvNxt = r.finSeq.Add(1)
	r.finSet = false
}
