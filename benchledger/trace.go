package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"

	"hdnh/internal/bigkv"
	"hdnh/internal/nvm"
	"hdnh/internal/resp"
)

// Spans are recorded from the benchmark's own files around the calls it
// makes into each layer; nothing inside the program is instrumented.
//
// A parent span is one client request, or one pipeline batch, on a lane.
// Its children are the calls made on that lane's store session inside its
// interval: the core call itself for the library face, the resp.Backend
// calls into bigkv for the RESP face. The HTTP face hides its sessions in
// serve's pool, so its requests have no children.

type spanKind uint8

const (
	spanRequest spanKind = iota // parent: a request or pipeline batch
	spanGet                     // child: Get / MultiGet
	spanNegGet                  // child: Get of an absent key (library face)
	spanSet                     // child: Update / MultiPut
	spanDelete                  // child: MultiDelete
	spanSync                    // child: SyncObs at the end of a RESP burst
	numSpanKinds
)

func (k spanKind) String() string {
	return [...]string{"request", "get", "neg_get", "set", "delete", "sync"}[k]
}

// span is one timed interval; nv is the NVM traffic the session recorded
// inside it (children only).
type span struct {
	start, end int64
	kind       spanKind
	keys       int32
	errs       int32
	nv         nvm.Stats
}

// cover returns how much of [p.start, p.end) the children cover. Children
// of one session run one at a time, so their intervals do not overlap each
// other; a child that straddles the parent's edge counts only inside it.
func cover(p span, children []span) int64 {
	var c int64
	for _, ch := range children {
		lo, hi := max(ch.start, p.start), min(ch.end, p.end)
		if hi > lo {
			c += hi - lo
		}
	}
	return c
}

// traceAgg accumulates a lane's spans as they close.
type traceAgg struct {
	parents   int64
	parentOps int64
	parentNs  int64
	coveredNs int64
	outsideNs int64 // child time outside every parent (should stay 0)

	calls [numSpanKinds]int64
	keys  [numSpanKinds]int64
	ns    [numSpanKinds]int64
	errs  int64
	nv    [numSpanKinds]nvm.Stats
}

// addParent folds one closed parent and the children recorded during it.
func (a *traceAgg) addParent(p span, children []span) {
	d := p.end - p.start
	c := cover(p, children)
	a.parents++
	a.parentOps += int64(p.keys)
	a.parentNs += d
	a.coveredNs += c
	for _, ch := range children {
		a.calls[ch.kind]++
		a.keys[ch.kind] += int64(ch.keys)
		a.ns[ch.kind] += ch.end - ch.start
		a.errs += int64(ch.errs)
		a.nv[ch.kind].Add(ch.nv)
	}
	var total int64
	for _, ch := range children {
		total += ch.end - ch.start
	}
	a.outsideNs += total - c
}

func (a *traceAgg) merge(b *traceAgg) {
	a.parents += b.parents
	a.parentOps += b.parentOps
	a.parentNs += b.parentNs
	a.coveredNs += b.coveredNs
	a.outsideNs += b.outsideNs
	for k := range a.calls {
		a.calls[k] += b.calls[k]
		a.keys[k] += b.keys[k]
		a.ns[k] += b.ns[k]
		a.nv[k].Add(b.nv[k])
	}
	a.errs += b.errs
}

// childNVM sums the NVM traffic recorded in every child kind.
func (a *traceAgg) childNVM() nvm.Stats {
	var s nvm.Stats
	for k := range a.nv {
		s.Add(a.nv[k])
	}
	return s
}

// batchCalls and batchKeys count the Multi* calls (each one a batchrun run)
// and the keys they carried.
func (a *traceAgg) batchCalls() (calls, keys int64) {
	for _, k := range []spanKind{spanGet, spanNegGet, spanSet, spanDelete} {
		calls += a.calls[k]
		keys += a.keys[k]
	}
	return calls, keys
}

// spanDump keeps the first spansPerLane spans of each lane in memory and
// writes them out as Chrome trace-event JSON (loadable in Perfetto) when
// the run ends.
type spanDump struct {
	mu    sync.Mutex
	lanes map[int][]span
}

const spansPerLane = 20_000

func newSpanDump() *spanDump { return &spanDump{lanes: make(map[int][]span)} }

func (d *spanDump) add(lane int, parent span, children []span) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.lanes[lane]
	if len(s)+1+len(children) > spansPerLane {
		return
	}
	d.lanes[lane] = append(append(s, parent), children...)
}

func (d *spanDump) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprint(bw, "{\"traceEvents\":[")
	first := true
	d.mu.Lock()
	for lane, spans := range d.lanes {
		for _, s := range spans {
			if !first {
				bw.WriteString(",\n")
			}
			first = false
			fmt.Fprintf(bw, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"keys":%d,"nvm_ns":%d}}`,
				s.kind.String(), lane, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.keys, s.nv.ModeledNanos)
		}
	}
	d.mu.Unlock()
	fmt.Fprint(bw, "]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedBackend wraps resp.StoreBackend so every call the RESP executor
// makes into bigkv is timed, with the session's NVM traffic during it.
// Sessions are handed out in creation order, which is connection order
// because the benchmark opens its connections one at a time.
type tracedBackend struct {
	st *bigkv.Store

	mu       sync.Mutex
	sessions []*tracedSession
}

func (b *tracedBackend) NewSession() resp.BackendSession {
	s := &tracedSession{inner: b.st.NewSession()}
	b.mu.Lock()
	b.sessions = append(b.sessions, s)
	b.mu.Unlock()
	return s
}

// session returns the i-th session created (nil if not yet created).
func (b *tracedBackend) session(i int) *tracedSession {
	b.mu.Lock()
	defer b.mu.Unlock()
	if i < len(b.sessions) {
		return b.sessions[i]
	}
	return nil
}

// tracedSession records each call as a child span; the client lane takes
// them when its request completes.
type tracedSession struct {
	inner *bigkv.Session

	mu       sync.Mutex
	children []span
}

func (s *tracedSession) record(kind spanKind, start int64, before nvm.Stats, keys int, errs []error) {
	sp := span{start: start, end: now(), kind: kind, keys: int32(keys), nv: s.inner.NVMStats().Sub(before)}
	for _, err := range errs {
		if err != nil && !isNotFound(err) {
			sp.errs++
		}
	}
	s.mu.Lock()
	s.children = append(s.children, sp)
	s.mu.Unlock()
}

func (s *tracedSession) MultiGet(keys [][]byte) ([][]byte, []bool, []error) {
	before, start := s.inner.NVMStats(), now()
	vals, found, errs := s.inner.MultiGet(keys)
	s.record(spanGet, start, before, len(keys), errs)
	return vals, found, errs
}

func (s *tracedSession) MultiPut(keys, values [][]byte) []error {
	before, start := s.inner.NVMStats(), now()
	errs := s.inner.MultiPut(keys, values)
	s.record(spanSet, start, before, len(keys), errs)
	return errs
}

func (s *tracedSession) MultiDelete(keys [][]byte) []error {
	before, start := s.inner.NVMStats(), now()
	errs := s.inner.MultiDelete(keys)
	s.record(spanDelete, start, before, len(keys), errs)
	return errs
}

func (s *tracedSession) SyncObs() {
	before, start := s.inner.NVMStats(), now()
	s.inner.SyncObs()
	s.record(spanSync, start, before, 0, nil)
}

func (s *tracedSession) Close() error { return s.inner.Close() }

// takeChildren moves the recorded children into dst.
func (s *tracedSession) takeChildren(dst []span) []span {
	s.mu.Lock()
	dst = append(dst, s.children...)
	s.children = s.children[:0]
	s.mu.Unlock()
	return dst
}
