package sim

import (
	"pilotrf/internal/isa"
	"pilotrf/internal/regfile"
)

// eventKind selects what a scheduled event does when it fires.
type eventKind uint8

const (
	// evBankDone completes a bank transaction (completeBankReq).
	evBankDone eventKind = iota
	// evWriteback retires an executed instruction (writeback).
	evWriteback
	// evMemDone returns a global-memory transaction (memDone).
	evMemDone
)

// bankDone is what a completed bank write does besides freeing the bank.
type bankDone uint8

const (
	// doneNone: a background write (RFC eviction or flush).
	doneNone bankDone = iota
	// doneComplete retires the instruction (completeInstr).
	doneComplete
	// doneRelease clears the destination's scoreboard bit, then retires
	// the instruction.
	doneRelease
)

// event is one scheduled occurrence in the SM's timing model: a kind plus
// its payload. Bank events use warp/arch/col/done; writeback and memory
// events use warp/in.
type event struct {
	cycle int64
	seq   uint64 // push order; equals firing order within a cycle
	warp  *warpCtx
	in    *isa.Instruction
	col   *collectorUnit
	next  int32 // intrusive bucket list / free list link
	kind  eventKind
	done  bankDone
	arch  isa.Reg
}

// eventWheel is a timing wheel of pending events. Bucket c&mask holds the
// events due at cycle c as a FIFO list threaded through one shared slab;
// every pending event lies in [now, now+len(head)), so a bucket never
// mixes cycles and FIFO order is seq order. Popping therefore yields the
// (cycle, seq) order a binary heap would, with no boxing and no per-event
// allocation once the slab has reached the peak pending count.
type eventWheel struct {
	slab       []event
	free       int32   // head of the slab free list, -1 when empty
	head, tail []int32 // per bucket, -1 when empty
	mask       int64
	now        int64 // the cycle being (or last) drained
	n          int   // pending events
	seq        uint64
}

// newEventWheel returns a wheel whose horizon covers delays up to
// maxDelay cycles without growing.
func newEventWheel(maxDelay int) eventWheel {
	size := 1
	for size <= maxDelay {
		size <<= 1
	}
	q := eventWheel{free: -1}
	q.resize(size)
	return q
}

// len returns the number of pending events.
func (q *eventWheel) len() int { return q.n }

// resize re-buckets every pending event onto a wheel of size buckets,
// walking the old buckets in cycle order so each new bucket keeps its
// FIFO (seq) order.
func (q *eventWheel) resize(size int) {
	oldHead := q.head
	q.head, q.tail = make([]int32, size), make([]int32, size)
	for i := range q.head {
		q.head[i], q.tail[i] = -1, -1
	}
	q.mask = int64(size - 1)
	for c := q.now; c < q.now+int64(len(oldHead)); c++ {
		for i := oldHead[c&int64(len(oldHead)-1)]; i >= 0; {
			next := q.slab[i].next
			q.link(i)
			i = next
		}
	}
}

// link appends slab entry i to the tail of its cycle's bucket.
func (q *eventWheel) link(i int32) {
	e := &q.slab[i]
	e.next = -1
	b := e.cycle & q.mask
	if q.tail[b] < 0 {
		q.head[b] = i
	} else {
		q.slab[q.tail[b]].next = i
	}
	q.tail[b] = i
}

// push schedules e at e.cycle, which must not precede the cycle being
// drained; an event due at that cycle fires in the same drain.
func (q *eventWheel) push(e event) {
	if e.cycle < q.now {
		panic("sim: event scheduled in the past")
	}
	size := int64(len(q.head))
	for e.cycle-q.now >= size {
		size <<= 1
	}
	if size != int64(len(q.head)) {
		q.resize(int(size))
	}
	q.seq++
	e.seq = q.seq
	i := q.free
	if i >= 0 {
		q.free = q.slab[i].next
		q.slab[i] = e
	} else {
		i = int32(len(q.slab))
		q.slab = append(q.slab, e)
	}
	q.link(i)
	q.n++
}

// pop removes and returns the earliest pending event due at or before
// now, in (cycle, seq) order.
func (q *eventWheel) pop(now int64) (event, bool) {
	for q.n > 0 {
		b := q.now & q.mask
		if i := q.head[b]; i >= 0 {
			e := q.slab[i]
			q.head[b] = e.next
			if e.next < 0 {
				q.tail[b] = -1
			}
			q.slab[i] = event{next: q.free}
			q.free = i
			q.n--
			return e, true
		}
		if q.now >= now {
			return event{}, false
		}
		q.now++
	}
	if now > q.now {
		q.now = now
	}
	return event{}, false
}

// ring is a growable FIFO ring buffer (power-of-two capacity).
type ring[T any] struct {
	buf     []T
	head, n int
}

// len returns the number of queued items.
func (r *ring[T]) len() int { return r.n }

// push appends v at the tail.
func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		buf := make([]T, max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the head item; the ring must be non-empty.
func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// bankReq is one register file bank transaction.
type bankReq struct {
	warp    *warpCtx
	col     *collectorUnit // collector awaiting this read; nil for writes
	arch    isa.Reg        // architected register (for routing stats)
	phys    isa.Reg        // physical register (fixes the bank)
	isWrite bool
	done    bankDone // what a completed write retires
}

// bankState is one RF bank: a FIFO of requests served one at a time; the
// service latency depends on the partition (FRF/SRF/MRF) and, for the
// FRF, on the adaptive power mode at service time.
type bankState struct {
	queue     ring[bankReq]
	busyUntil int64
}

// collectorUnit buffers one issued instruction while its source operands
// are gathered from the banks (or the RFC).
type collectorUnit struct {
	warp         *warpCtx
	in           *isa.Instruction
	execMask     uint32
	pendingReads int
	// readyAt delays dispatch until the given cycle even when no bank
	// reads are pending — the RFC's own read stage.
	readyAt int64
}

// memOp is a global-memory transaction waiting for an in-flight slot.
type memOp struct {
	warp *warpCtx
	in   *isa.Instruction
}

// memUnit is the SM's global-memory interface: fixed latency with a
// bounded number of in-flight transactions.
type memUnit struct {
	inflight int
	waiting  ring[memOp] // transactions waiting for a slot
}

// tickBanks advances every bank: each bank accepts one request per cycle
// (the arrays are pipelined, so a slow NTV partition costs access LATENCY
// on dependency chains, not bank throughput — the premise behind the
// paper's 7.1% NTV slowdown); the requested data becomes available after
// the partition's access latency.
func (s *sm) tickBanks() {
	for b := range s.banks {
		bank := &s.banks[b]
		if bank.busyUntil > s.now || bank.queue.len() == 0 {
			continue
		}
		req := bank.queue.pop()

		part, lat := s.routeAccess(req)
		if s.pf != nil {
			s.pf.bankOps++
		}
		s.countPartAccess(part, req.warp.slot, req.arch)
		if s.cfg.Tracer != nil {
			kind := "read"
			if req.isWrite {
				kind = "write"
			}
			s.trace(TraceBankAccess, req.warp.slot, -1, "bank %d %s %s -> %s (%d cyc)",
				b, kind, req.arch, part, lat)
		}
		bank.busyUntil = s.now + 1
		s.events.push(event{
			cycle: s.now + int64(lat), kind: evBankDone,
			warp: req.warp, col: req.col, arch: req.arch, done: req.done,
		})
	}
}

// routeAccess resolves the partition and latency for a request at service
// time. The physical register was fixed at enqueue (it determines the
// bank); only the FRF power mode is sampled live.
func (s *sm) routeAccess(req bankReq) (regfile.Partition, int) {
	cfg := s.rf.Config()
	switch cfg.Design {
	case regfile.DesignMonolithicSTV, regfile.DesignMonolithicNTV:
		if s.cfg.UseRFC {
			return regfile.PartMRF, s.cfg.RFCMRFLatency
		}
		return regfile.PartMRF, cfg.Lat.MRF
	}
	if int(req.phys) < cfg.FRFRegs {
		if a := s.rf.Adaptive(); a != nil && a.LowPower() {
			return regfile.PartFRFLow, cfg.Lat.FRFLow
		}
		return regfile.PartFRFHigh, cfg.Lat.FRFHigh
	}
	return regfile.PartSRF, cfg.Lat.SRF
}

// completeBankReq retires a serviced bank transaction: a read counts down
// its collector; a write runs its writeback bookkeeping.
func (s *sm) completeBankReq(e event) {
	if e.col != nil {
		e.col.pendingReads--
		// Dispatch happens in the collector sweep, keeping ordering
		// deterministic.
		return
	}
	switch e.done {
	case doneRelease:
		e.warp.pendingRegs &^= 1 << uint(e.arch)
		s.completeInstr(e.warp)
	case doneComplete:
		s.completeInstr(e.warp)
	}
}

// enqueueBankRead queues a source-operand read for a collector.
func (s *sm) enqueueBankRead(col *collectorUnit, arch isa.Reg) {
	phys := s.rf.PhysicalReg(arch)
	b := s.rf.BankOf(col.warp.slot, phys)
	s.banks[b].queue.push(bankReq{warp: col.warp, arch: arch, phys: phys, col: col})
}

// enqueueBankWrite queues a destination write; done says what retires
// when the write completes (scoreboard release, instruction completion).
func (s *sm) enqueueBankWrite(w *warpCtx, arch isa.Reg, done bankDone) {
	phys := s.rf.PhysicalReg(arch)
	b := s.rf.BankOf(w.slot, phys)
	s.banks[b].queue.push(bankReq{warp: w, arch: arch, phys: phys, isWrite: true, done: done})
}

// runEvents fires all events due at the current cycle.
func (s *sm) runEvents() {
	for {
		e, ok := s.events.pop(s.now)
		if !ok {
			return
		}
		if s.pf != nil {
			s.pf.fired++
		}
		switch e.kind {
		case evBankDone:
			s.completeBankReq(e)
		case evWriteback:
			s.writeback(e.warp, e.in)
		case evMemDone:
			s.memDone(e.warp, e.in)
		}
	}
}

// memDispatch issues a global-memory transaction; it completes (memDone)
// after the memory latency. Excess transactions wait for a free slot.
func (s *sm) memDispatch(w *warpCtx, in *isa.Instruction) {
	if s.mem.inflight < s.cfg.MaxMemInflight {
		s.memStart(w, in)
	} else {
		s.mem.waiting.push(memOp{warp: w, in: in})
	}
}

// memStart occupies an in-flight slot for the memory latency.
func (s *sm) memStart(w *warpCtx, in *isa.Instruction) {
	s.mem.inflight++
	s.events.push(event{cycle: s.now + int64(s.cfg.MemLatency), kind: evMemDone, warp: w, in: in})
}

// memDone frees the transaction's slot (starting the next waiting one)
// and writes the loaded result back.
func (s *sm) memDone(w *warpCtx, in *isa.Instruction) {
	s.mem.inflight--
	if s.mem.waiting.len() > 0 {
		next := s.mem.waiting.pop()
		s.memStart(next.warp, next.in)
	}
	if s.cfg.Tracer != nil {
		s.trace(TraceMemDone, w.slot, -1, "%s", in.Op)
	}
	w.memInFlight--
	if s.cfg.Policy == PolicyTL {
		s.schedulers[w.slot%s.cfg.Schedulers].promote(s)
	}
	s.writeback(w, in)
}
