package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"syscall"
	"time"

	"hdnh/internal/kv"
	"hdnh/internal/nvm"
	"hdnh/internal/obs"
)

// env is one set-up store behind one face, with its client lanes.
type env interface {
	conns() []conn
	// nvmNow is the cumulative device traffic the write amplification and
	// the stall figures are taken from.
	nvmNow() nvm.Stats
	// snapshot is the metrics registry, when one is attached.
	snapshot() (obs.Snapshot, bool)
	deviceBytes() int64
	// quiesce ends all client and server activity.
	quiesce() error
	// check runs the end-of-run assertions on a quiesced store.
	check(wantCount int64) []error
	close()
}

// run is one workload run.
type run struct {
	w     Workload
	cfg   config
	stamp stamp
	keys  [][]byte // served faces: the wire key of every index

	mu  sync.Mutex
	cur *phase // the phase in flight, read by abandon
}

func (r *run) setup(traced bool) (env, error) {
	if r.w.Face == faceLib {
		return setupLib(r.w, traced)
	}
	return setupServed(r.w, r.keys, traced)
}

func (r *run) keyFunc() func(o op) kv.Key {
	if r.w.Face == faceLib {
		return libKey
	}
	return func(o op) (k kv.Key) {
		copy(k[:], r.keys[o.idx])
		return k
	}
}

func (r *run) streams() ([]*opStream, error) {
	out := make([]*opStream, lanes)
	for i := range out {
		s, err := newOpStream(r.w, r.cfg.seed, i)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

func (r *run) execute() *result {
	res := &result{Stamp: r.stamp, Correct: true, Metrics: map[string]metric{}}
	if r.w.Face != faceLib {
		r.keys = make([][]byte, r.w.keySpace())
		for i := range r.keys {
			r.keys[i] = wireKey(int64(i))
		}
	}
	if r.cfg.trace {
		r.traced(res)
	} else {
		r.endToEnd(res)
	}
	return res
}

// measured is what one phase produced.
type measured struct {
	stats   laneStats
	lat     [numLatClasses][]uint32
	perLane []int64 // ops per lane id
	kinds   [][numOpKinds]int64
	wall    time.Duration
	nvm     nvm.Stats
	snap    obs.Snapshot
	cpu     time.Duration
	allocs  uint64
	gcPause uint64
}

// measure runs one phase on e. limits, when non-nil, fixes each lane's op
// count (the traced replay); otherwise the phase runs for the configured
// seconds. ok is false when the phase missed its deadline.
func (r *run) measure(e env, chk *checker, traced bool, limits []int64) (m measured, ok bool, err error) {
	streams, err := r.streams()
	if err != nil {
		return m, false, err
	}
	p := newPhase(r.w, chk, r.keyFunc(), traced)
	r.mu.Lock()
	r.cur = p
	r.mu.Unlock()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	nv0 := e.nvmNow()
	snap0, hasSnap := e.snapshot()

	deadline := time.Now().Add(r.cfg.seconds + 30*time.Second)
	if limits != nil {
		deadline = time.Now().Add(4*r.cfg.seconds + 30*time.Second)
	}
	if deadline.After(r.cfg.hard) {
		deadline = r.cfg.hard.Add(-2 * time.Second)
	}
	wall, ok := p.run(e.conns(), streams, r.cfg.seconds, limits, deadline)
	if !ok {
		return m, false, nil
	}
	m.wall = wall
	m.cpu = cpuTime() - cpu0
	m.nvm = e.nvmNow().Sub(nv0)
	if hasSnap {
		s1, _ := e.snapshot()
		m.snap = s1.Sub(snap0)
	}
	runtime.ReadMemStats(&ms1)
	m.allocs = ms1.TotalAlloc - ms0.TotalAlloc
	m.gcPause = ms1.PauseTotalNs - ms0.PauseTotalNs

	p.mu.Lock()
	m.perLane = make([]int64, lanes)
	m.kinds = make([][numOpKinds]int64, lanes)
	for _, ls := range p.published {
		m.perLane[ls.id] = ls.ops()
		m.kinds[ls.id] = ls.count
	}
	p.mu.Unlock()
	m.stats, _ = p.merged()
	if !traced {
		for c := range m.lat {
			m.lat[c] = p.latencies(latClass(c))
		}
	}
	if traced && p.spans != nil {
		path := filepath.Join(r.cfg.out, fmt.Sprintf("%s-seed%d-spans.json", r.w.Name, r.cfg.seed))
		if err := p.spans.write(path); err != nil {
			fmt.Fprintln(r.cfg.log, "benchledger: writing spans:", err)
		}
	}
	return m, true, nil
}

// finish quiesces e, runs the end-of-run checks and records violations.
func (r *run) finish(res *result, e env, chk *checker) {
	want := chk.ackedKeys()
	if err := e.quiesce(); err != nil {
		res.violate("quiesce: " + err.Error())
	}
	res.violate(joinErrs(e.check(want))...)
}

// wedged ends a run whose phase missed its deadline.
func (r *run) wedged(res *result) {
	dumpGoroutines(r.cfg, r.w.Name, "phase deadline passed")
	*res = *r.abandon("phase deadline passed")
	res.Wedged = true
}

// abandon reports a run that did not end: what the finished lanes measured,
// every unanswered op failed, and the run marked incorrect.
func (r *run) abandon(why string) *result {
	res := &result{Stamp: r.stamp, Metrics: map[string]metric{}}
	r.mu.Lock()
	p := r.cur
	r.mu.Unlock()
	res.violate("run did not end: " + why)
	if p == nil {
		res.Attempted = 1
		return res
	}
	res.Attempted = p.attempted.Load()
	unanswered := res.Attempted - p.completed.Load()
	res.Failed += unanswered
	all, done := p.merged()
	res.Failed += all.failed + all.wrong
	res.Violations = append(res.Violations, p.chk.messages()...)
	res.Notes = append(res.Notes, fmt.Sprintf("%d of %d lanes ended; %d ops unanswered", done, lanes, unanswered))
	res.Stamp.Ops = all.ops()
	return res
}

func (r *run) endToEnd(res *result) {
	goroutines := runtime.NumGoroutine()
	var e env
	// At least minSetups set-ups; quick ones are repeated until they add up
	// to setupSpan, so the median rests on enough of them to be steady.
	const minSetups, setupSpan, maxSetups = 3, 6 * time.Second, 15
	var setupS []float64
	var spent time.Duration
	var baseline uint64
	for i := 0; i < maxSetups && (i < minSetups || spent < setupSpan); i++ {
		if e != nil {
			e.quiesce()
			e.close()
			e = nil
			awaitGoroutines(goroutines)
		}
		// Every set-up starts with the previous store's memory returned to
		// the OS, as a fresh process would, so each one pays the same page
		// faults for its device and tables.
		baseline = heapAfterGC()
		start := time.Now()
		var err error
		e, err = r.setup(false)
		if err != nil {
			res.violate("setup: " + err.Error())
			res.Attempted = 1
			return
		}
		setupS = append(setupS, time.Since(start).Seconds())
		spent += time.Since(start)
	}
	// The checker comes after the last baseline reading, so that the final
	// reading (where it is released) holds the same benchmark data.
	chk := newChecker(r.w.keySpace(), r.w.Preload)
	m, ok, err := r.measure(e, chk, false, nil)
	if err != nil {
		res.violate("measure: " + err.Error())
		return
	}
	if !ok {
		r.wedged(res)
		return
	}
	r.finish(res, e, chk)
	r.account(res, m, chk)

	get, set := summarize(m.lat[latGet]), summarize(m.lat[latSet])
	ops := m.stats.ops()
	res.Stamp.Ops = ops
	add := func(name string, v float64, unit string, n int64, note string) {
		res.Metrics[name] = metric{Value: v, Unit: unit, N: n, Note: note}
	}
	thr, secs := throughput(m.stats.perSec, r.cfg.seconds, ops, m.wall)
	add("throughput_ops", thr, "ops/s", ops, fmt.Sprintf("median of %d one-second windows; %d lanes, %.0f ops/s over %.3f s",
		secs, lanes, float64(ops)/m.wall.Seconds(), m.wall.Seconds()))
	add("get_p50_us", get.p50, "us", int64(get.n), "")
	add("get_p999_us", get.tail, "us", int64(get.n), tailNote(get))
	add("set_p50_us", set.p50, "us", int64(set.n), "")
	add("set_p999_us", set.tail, "us", int64(set.n), tailNote(set))
	slices.Sort(setupS)
	add("setup_s", setupS[len(setupS)/2], "s", int64(len(setupS)), fmt.Sprintf("median of %v", roundAll(setupS)))
	userBytes := m.stats.acked * int64(16+r.w.ValueLen)
	add("nvm_write_amp", ratio(float64(m.nvm.Flushes*nvm.CachelineBytes), float64(userBytes)), "ratio", m.stats.acked,
		fmt.Sprintf("%d flushed lines / %d acknowledged key+value bytes", m.nvm.Flushes, userBytes))

	// Release the phase, its checker and its samples: what stays live is
	// what was live at the baseline plus the store.
	r.mu.Lock()
	r.cur = nil
	r.mu.Unlock()
	chk, m = nil, measured{}
	add("dram_mb", storeHeapMB(baseline, e), "MiB", 1, "live heap after GC, less the baseline before set-up and the device bytes")
	e.close()
}

// storeHeapMB is e's DRAM in MiB: the live heap after a forced GC, less
// baseline (the heap before e was set up) and the emulated device's backing
// array. It holds when nothing the benchmark allocated after baseline is
// still reachable.
func storeHeapMB(baseline uint64, e env) float64 {
	return float64(int64(heapAfterGC())-int64(baseline)-e.deviceBytes()) / (1 << 20)
}

// account folds a phase's op outcomes into the result.
func (r *run) account(res *result, m measured, chk *checker) {
	res.Attempted += m.stats.ops()
	res.Failed += m.stats.failed + m.stats.wrong
	if m.stats.wrong > 0 || chk.violations.Load() > m.stats.wrong {
		res.Correct = false
	}
	res.Violations = append(res.Violations, chk.messages()...)
	if m.stats.failed > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d ops failed; first: %s", m.stats.failed, m.stats.errMsg))
	}
}

func tailNote(l latencyOf) string {
	if l.tailOK {
		return "p99.9"
	}
	return fmt.Sprintf("only %d samples: reporting %s, fewer than %d beyond p99.9", l.n, l.tailLabel, tailBeyond)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int64(x*1000)) / 1000
	}
	return out
}

// awaitGoroutines waits, at most 5 s, until no more than n goroutines run. A
// closed env's connection goroutines can outlive its close for a moment, and
// while they run they keep its store, device included, reachable.
func awaitGoroutines(n int) {
	for end := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > n && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
}

// heapAfterGC collects, returns the freed memory to the OS and reports the
// live heap.
func heapAfterGC() uint64 {
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
