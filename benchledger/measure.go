package main

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hdnh/internal/kv"
)

// epoch anchors the monotonic nanosecond clock every span and latency uses.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// Tails are p99.9, reported only when at least tailBeyond samples lie
// beyond the rank: an op kind needs 10 000 samples for a p99.9.
const (
	tailPerMille = 999
	tailBeyond   = 10
)

// rank is the 1-based nearest rank of the perMille quantile of n samples.
func rank(n, perMille int) int {
	r := (n*perMille + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// quantile returns the perMille quantile of sorted samples (0 when empty).
func quantile(sorted []uint32, perMille int) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), perMille)-1]
}

// tail returns the p99.9 of sorted samples when at least tailBeyond samples
// lie beyond it. Otherwise it returns the highest quantile that still has
// tailBeyond samples beyond it and ok=false, with label naming it; with
// tailBeyond or fewer samples it returns the maximum.
func tail(sorted []uint32) (v uint32, label string, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, "none", false
	}
	if r := rank(n, tailPerMille); n-r >= tailBeyond {
		return sorted[r-1], "p99.9", true
	}
	if n <= tailBeyond {
		return sorted[n-1], "max", false
	}
	r := n - tailBeyond
	return sorted[r-1], fmt.Sprintf("p%.2f", 100*float64(r)/float64(n)), false
}

// latencyOf summarises one op type's samples.
type latencyOf struct {
	n         int
	p50, tail float64 // microseconds
	tailLabel string
	tailOK    bool
}

// summarize reports the median and the tail of samples, sorting them.
func summarize(all []uint32) latencyOf {
	slices.Sort(all)
	t, label, ok := tail(all)
	return latencyOf{
		n:         len(all),
		p50:       float64(quantile(all, 500)) / 1e3,
		tail:      float64(t) / 1e3,
		tailLabel: label,
		tailOK:    ok,
	}
}

// sampleBuf stores latency samples in fixed chunks, so recording never
// copies what was recorded before (a growing slice would, stalling the lane
// that pays for the copy).
type sampleBuf struct{ chunks [][]uint32 }

const sampleChunk = 1 << 16

func (b *sampleBuf) add(v uint32) {
	n := len(b.chunks)
	if n == 0 || len(b.chunks[n-1]) == sampleChunk {
		b.chunks = append(b.chunks, make([]uint32, 0, sampleChunk))
		n++
	}
	b.chunks[n-1] = append(b.chunks[n-1], v)
}

// appendTo appends the samples to dst in recording order.
func (b *sampleBuf) appendTo(dst []uint32) []uint32 {
	for _, c := range b.chunks {
		dst = append(dst, c...)
	}
	return dst
}

// reply is one op's outcome as a conn reports it.
type reply struct {
	found bool
	val   []byte // GET value; valid until the next exec on the same conn
	err   error  // error reply or per-op failure
	end   int64  // clock reading when the reply arrived
}

// conn is one lane's client of a face: it executes batches of ops. exec fills
// res[i] for batch[i]; a returned error means the lane's transport broke and
// none of the unanswered ops will be.
type conn interface {
	exec(batch []op, res []reply) error
	close() error
}

// childSource is implemented by conns that can report the calls made
// into the layers below on behalf of their requests (traced runs only).
type childSource interface {
	takeChildren(dst []span) []span
}

// laneStats is what one lane measured; owned by the lane until published.
type laneStats struct {
	id     int
	lat    [numLatClasses]sampleBuf // latencies in ns, GETs and SETs
	count  [numOpKinds]int64        // ops executed (replied or failed)
	failed int64                    // error replies and transport failures
	errMsg string                   // the first error reply, for the run log
	wrong  int64                    // replies the checker rejected
	acked  int64                    // acknowledged SETs
	perSec []int64                  // ops completed in each second of the phase
	tr     traceAgg
}

func (ls *laneStats) ops() int64 {
	var n int64
	for _, c := range ls.count {
		n += c
	}
	return n
}

// phase runs one measured closed-loop phase over all lanes.
type phase struct {
	w      Workload
	chk    *checker
	codec  valueCodec
	key    func(o op) kv.Key
	traced bool

	t0        int64 // clock reading when the lanes started
	stop      atomic.Bool
	attempted atomic.Int64 // ops issued, all lanes
	completed atomic.Int64 // ops answered or failed, all lanes

	mu        sync.Mutex
	published []*laneStats
	spans     *spanDump
}

func newPhase(w Workload, chk *checker, key func(o op) kv.Key, traced bool) *phase {
	p := &phase{w: w, chk: chk, codec: valueCodec{n: w.ValueLen}, key: key, traced: traced}
	if traced {
		p.spans = newSpanDump()
	}
	return p
}

// runLane drives one lane until the phase stops or, when limit > 0, until
// limit ops ran; the stats are published when the lane ends.
func (p *phase) runLane(id int, d conn, s *opStream, limit int64) {
	ls := &laneStats{id: id}
	defer p.publish(ls)
	depth := p.w.Depth
	batch := make([]op, depth)
	res := make([]reply, depth)
	var children []span
	cs, _ := d.(childSource)
	var ops int64
	for !p.stop.Load() && (limit == 0 || ops < limit) {
		n := depth
		if limit > 0 && limit-ops < int64(n) {
			n = int(limit - ops)
		}
		for i := 0; i < n; i++ {
			o := s.next()
			o.key = p.key(o)
			switch o.kind {
			case opSet:
				o.ver = p.chk.beginWrite(o.idx)
			case opGet:
				o.floor = p.chk.beginRead(o.idx)
			}
			batch[i] = o
		}
		p.attempted.Add(int64(n))
		start := now()
		if err := d.exec(batch[:n], res[:n]); err != nil {
			ls.failed += int64(n)
			p.completed.Add(int64(n))
			p.chk.violate(fmt.Errorf("lane %d: transport: %v", id, err))
			return
		}
		for i := 0; i < n; i++ {
			p.judge(ls, batch[i], res[i], start)
		}
		ops += int64(n)
		p.completed.Add(int64(n))
		end := res[n-1].end
		sec := int((end - p.t0) / int64(time.Second))
		for len(ls.perSec) <= sec {
			ls.perSec = append(ls.perSec, 0)
		}
		ls.perSec[sec] += int64(n)
		if p.traced {
			if cs != nil {
				children = cs.takeChildren(children[:0])
			}
			ls.tr.addParent(span{start: start, end: end, keys: int32(n)}, children)
			p.spans.add(id, span{start: start, end: end, kind: spanRequest, keys: int32(n)}, children)
		}
	}
}

// judge checks one reply and records its latency.
func (p *phase) judge(ls *laneStats, o op, r reply, start int64) {
	ls.count[o.kind]++
	lat := r.end - start
	if lat > int64(^uint32(0)) {
		lat = int64(^uint32(0))
	}
	ls.lat[classOf(o.kind)].add(uint32(lat))
	if r.err != nil {
		ls.failed++
		if ls.errMsg == "" {
			ls.errMsg = fmt.Sprintf("%s of key %d: %v", [...]string{"GET", "GET", "SET"}[o.kind], o.idx, r.err)
		}
		return
	}
	var err error
	switch o.kind {
	case opSet:
		p.chk.ackWrite(o.idx, o.ver)
		ls.acked++
		return
	case opNegGet:
		if r.found {
			err = fmt.Errorf("negative key %d found", o.idx)
		}
	case opGet:
		var ver uint64
		if r.found {
			ver, err = p.codec.decode(o.key[:], r.val)
		}
		if err == nil {
			err = p.chk.judgeRead(o.idx, o.floor, r.found, ver)
		}
	}
	if err != nil {
		ls.wrong++
		p.chk.violate(err)
	}
}

func (p *phase) publish(ls *laneStats) {
	p.mu.Lock()
	p.published = append(p.published, ls)
	p.mu.Unlock()
}

// run starts one lane per conn, stops them after d (or lets each run its
// limit when limits is non-nil), and waits for every lane or for deadline.
// It returns the phase wall time and whether every lane ended in time.
func (p *phase) run(conns []conn, streams []*opStream, d time.Duration, limits []int64, deadline time.Time) (time.Duration, bool) {
	var wg sync.WaitGroup
	start := time.Now()
	p.t0 = now()
	for i := range conns {
		var limit int64
		if limits != nil {
			limit = limits[i]
		}
		wg.Add(1)
		go func(i int, limit int64) {
			defer wg.Done()
			p.runLane(i, conns[i], streams[i], limit)
		}(i, limit)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	if limits == nil {
		select {
		case <-time.After(d):
		case <-done:
		}
		p.stop.Store(true)
	}
	select {
	case <-done:
		return time.Since(start), true
	case <-time.After(time.Until(deadline)):
		p.stop.Store(true)
		return time.Since(start), false
	}
}

// merged returns the published lanes' stats combined (latency samples
// excepted: see latencies), and how many lanes published.
func (p *phase) merged() (all laneStats, lanesDone int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ls := range p.published {
		for k := range ls.count {
			all.count[k] += ls.count[k]
		}
		all.failed += ls.failed
		if all.errMsg == "" {
			all.errMsg = ls.errMsg
		}
		all.wrong += ls.wrong
		all.acked += ls.acked
		for len(all.perSec) < len(ls.perSec) {
			all.perSec = append(all.perSec, 0)
		}
		for i, n := range ls.perSec {
			all.perSec[i] += n
		}
		all.tr.merge(&ls.tr)
	}
	return all, len(p.published)
}

// latencies returns every published lane's samples of one latency class.
func (p *phase) latencies(c latClass) []uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []uint32
	for _, ls := range p.published {
		out = ls.lat[c].appendTo(out)
	}
	return out
}

// throughput is the median over the phase's whole seconds of the ops
// completed in each, so a second of host CPU steal moves one sample rather
// than the figure; phases shorter than a second fall back to ops ÷ wall.
func throughput(perSec []int64, seconds time.Duration, ops int64, wall time.Duration) (float64, int) {
	full := min(int(seconds/time.Second), len(perSec))
	if full < 1 {
		return float64(ops) / wall.Seconds(), 0
	}
	s := slices.Clone(perSec[:full])
	slices.Sort(s)
	if full%2 == 1 {
		return float64(s[full/2]), full
	}
	return float64(s[full/2-1]+s[full/2]) / 2, full
}
