package main

import (
	"errors"
	"fmt"
	"sync"

	"hdnh"
	"hdnh/internal/core"
	"hdnh/internal/kv"
	"hdnh/internal/nvm"
	"hdnh/internal/obs"
	"hdnh/internal/scheme"
)

// libEnv is the library face: an hdnh.Router with default options on the
// emulated device, driven through per-lane sessions.
type libEnv struct {
	w      Workload
	dev    *hdnh.Device
	r      *hdnh.Router
	ds     []*libConn
	traced bool
}

// deviceWordsFor sizes a device for records keys plus logWords of value
// log, by the rule hdnhserve and the harness use: bump allocation never
// reuses space, so the table needs several times its live size.
func deviceWordsFor(records, logWords int64) int64 {
	words := (records+1024)*kv.SlotWords*24 + logWords + nvm.BlockWords
	if words < 1<<20 {
		words = 1 << 20
	}
	if r := words % nvm.BlockWords; r != 0 {
		words += nvm.BlockWords - r
	}
	return words
}

func setupLib(w Workload, traced bool) (*libEnv, error) {
	dev, err := hdnh.NewDevice(hdnh.EmulatedDeviceConfig(deviceWordsFor(w.keySpace(), 0)))
	if err != nil {
		return nil, fmt.Errorf("device: %w", err)
	}
	opts := hdnh.DefaultOptions()
	// Sized for the preload the way scheme.Open sizes a table from its
	// capacity hint, so the preload does not resize.
	opts.InitBottomSegments = core.SizeBottomSegments(w.Preload, opts.SegmentBuckets)
	if traced {
		// The registry feeds the core.* per-layer counters; a library user
		// runs without it, so only the traced run attaches it.
		opts.Metrics = hdnh.NewMetrics(hdnh.MetricsConfig{})
	}
	r, err := hdnh.CreateRouter(dev, opts)
	if err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	e := &libEnv{w: w, dev: dev, r: r, traced: traced}
	codec := valueCodec{n: w.ValueLen}
	var wg sync.WaitGroup
	errs := make([]error, lanes)
	for i := 0; i < lanes; i++ {
		d := &libConn{s: r.NewSession(), codec: codec, traced: traced}
		e.ds = append(e.ds, d)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var vb [kv.ValueSize]byte
			for idx := int64(i); idx < w.Preload; idx += lanes {
				k := libKey(op{idx: idx})
				var v kv.Value
				copy(v[:], codec.encode(vb[:], k[:], 0))
				if err := d.s.Insert(k, v); err != nil {
					errs[i] = fmt.Errorf("preload key %d: %w", idx, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *libEnv) conns() []conn {
	out := make([]conn, len(e.ds))
	for i, d := range e.ds {
		out[i] = d
	}
	return out
}

// nvmNow sums the lanes' session traffic. Nothing else touches the device
// during the measured phase: the mix never grows the table, and the hot
// table's background writers stay in DRAM.
func (e *libEnv) nvmNow() nvm.Stats {
	var s nvm.Stats
	for _, d := range e.ds {
		s.Add(d.s.NVMStats())
	}
	return s
}

func (e *libEnv) snapshot() (obs.Snapshot, bool) {
	if !e.traced {
		return obs.Snapshot{}, false
	}
	return e.r.MetricsSnapshot(), true
}

func (e *libEnv) deviceBytes() int64 { return e.dev.Words() * nvm.WordBytes }

func (e *libEnv) quiesce() error { return nil }

func (e *libEnv) check(wantCount int64) []error {
	var errs []error
	if got := e.r.Count(); got != wantCount {
		errs = append(errs, fmt.Errorf("Count = %d, want %d distinct keys acknowledged", got, wantCount))
	}
	return append(errs, e.r.CheckInvariants()...)
}

func (e *libEnv) close() {
	for _, d := range e.ds {
		d.s.Close()
	}
	e.r.Close()
}

// libConn runs ops on one RouterSession, one call per op.
type libConn struct {
	s      *hdnh.RouterSession
	codec  valueCodec
	traced bool
	val    kv.Value
	buf    [kv.ValueSize]byte

	children []span
}

func (d *libConn) exec(batch []op, res []reply) error {
	for i, o := range batch {
		k := o.key
		var before nvm.Stats
		var start int64
		if d.traced {
			before, start = d.s.NVMStats(), now()
		}
		var r reply
		kind := spanGet
		switch o.kind {
		case opSet:
			kind = spanSet
			copy(d.val[:], d.codec.encode(d.buf[:], k[:], o.ver))
			r.err = d.s.Update(k, d.val)
		default:
			if o.kind == opNegGet {
				kind = spanNegGet
			}
			var v kv.Value
			v, r.found = d.s.Get(k)
			if r.found {
				d.val = v
				r.val = d.val[:]
			}
		}
		r.end = now()
		res[i] = r
		if d.traced {
			sp := span{start: start, end: r.end, kind: kind, keys: 1, nv: d.s.NVMStats().Sub(before)}
			if r.err != nil {
				sp.errs = 1
			}
			d.children = append(d.children, sp)
		}
	}
	return nil
}

func (d *libConn) takeChildren(dst []span) []span {
	dst = append(dst, d.children...)
	d.children = d.children[:0]
	return dst
}

func (d *libConn) close() error { return nil }

func isNotFound(err error) bool { return errors.Is(err, scheme.ErrNotFound) }
