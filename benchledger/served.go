package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"hdnh/internal/bigkv"
	"hdnh/internal/core"
	"hdnh/internal/kv"
	"hdnh/internal/nvm"
	"hdnh/internal/obs"
	"hdnh/internal/resp"
	"hdnh/internal/resp/client"
	"hdnh/internal/serve"
	"hdnh/internal/vlog"
)

// servedEnv is a bigkv store served over loopback the way hdnhserve serves
// it, plus the benchmark's client lanes.
type servedEnv struct {
	w         Workload
	keys      [][]byte
	dev       *nvm.Device
	st        *bigkv.Store
	srv       *serve.Server
	rsrv      *resp.Server
	hsrv      *http.Server
	tb        *tracedBackend
	ln        net.Listener
	done      chan error
	laneConns []conn
	trigg     int // the GC's free-segment trigger
}

// logSegmentWords is hdnhserve's value-log segment size (128 KiB).
const logSegmentWords = 1 << 14

// storeOptions mirrors hdnhserve's configuration for a -capacity of the
// preload: index sized for ~60% load at the preload, metrics registry
// attached, 128 KiB log segments.
func storeOptions(w Workload) (bigkv.Options, int64) {
	opts := bigkv.DefaultOptions()
	opts.Table.Shards = 1
	opts.Table.InitBottomSegments = core.SizeBottomSegments(w.Preload, opts.Table.SegmentBuckets)
	opts.Table.Metrics = obs.New(obs.Config{SampleEvery: obs.DefaultSampleEvery})
	opts.SegmentWords = logSegmentWords
	opts.Segments = 8 << 20 / 8 / opts.SegmentWords // hdnhserve's -logmb 8
	if w.LogLiveShare > 0 {
		live := w.keySpace() * vlog.RecordWords(w.ValueLen)
		opts.Segments = int64(float64(live)/w.LogLiveShare)/opts.SegmentWords + 1
	}
	// bigkv's default trigger, set here so check can settle the GC on it.
	opts.GCTriggerFreeSegments = max(int(opts.Segments/8), 2)
	return opts, opts.SegmentWords * opts.Segments
}

func setupServed(w Workload, keys [][]byte, traced bool) (*servedEnv, error) {
	opts, logWords := storeOptions(w)
	dev, err := nvm.New(nvm.EmulateConfig(deviceWordsFor(w.keySpace(), logWords)))
	if err != nil {
		return nil, fmt.Errorf("device: %w", err)
	}
	st, err := bigkv.Create(dev, opts)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	e := &servedEnv{w: w, keys: keys, dev: dev, st: st, done: make(chan error, 1), trigg: opts.GCTriggerFreeSegments}
	var respMetrics *obs.RESPMetrics
	if w.Face == faceRESP {
		respMetrics = obs.NewRESPMetrics()
	}
	e.srv = serve.New(serve.Options{Store: st, RESPMetrics: respMetrics, CollectEvery: time.Second})
	e.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	addr := e.ln.Addr().String()
	switch w.Face {
	case faceRESP:
		var be resp.Backend = resp.StoreBackend{St: st}
		if traced {
			e.tb = &tracedBackend{st: st}
			be = e.tb
		}
		e.rsrv = resp.NewServer(be, resp.Options{
			PipelineDepth: 128,
			MaxValueBytes: serve.MaxValueBytes,
			MaxKeyBytes:   kv.KeySize,
			Info:          e.srv.Info,
			Metrics:       respMetrics,
		})
		go func() { e.done <- e.rsrv.Serve(e.ln) }()
		for i := 0; i < lanes; i++ {
			d, err := dialRESP(addr, w)
			if err != nil {
				e.close()
				return nil, err
			}
			if e.tb != nil {
				d.sess = e.tb.session(i)
			}
			e.laneConns = append(e.laneConns, d)
		}
	case faceHTTP:
		e.hsrv = &http.Server{
			Handler:           e.srv.Handler(),
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       15 * time.Second,
			WriteTimeout:      15 * time.Second,
			IdleTimeout:       60 * time.Second,
		}
		go func() { e.done <- e.hsrv.Serve(e.ln) }()
		for i := 0; i < lanes; i++ {
			e.laneConns = append(e.laneConns, newHTTPConn("http://"+addr, w))
		}
	}
	if err := e.preload(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// preload writes version 0 of every preloaded key through the workload's
// face, the lanes splitting the keys: pipelined SETs at depth 64 over RESP,
// 256-op POST /batch requests over HTTP.
func (e *servedEnv) preload() error {
	var wg sync.WaitGroup
	errs := make([]error, len(e.laneConns))
	for i, d := range e.laneConns {
		wg.Add(1)
		go func(i int, d conn) {
			defer wg.Done()
			var ops []op
			for k := int64(i); k < e.w.Preload; k += lanes {
				o := op{kind: opSet, idx: k}
				copy(o.key[:], e.keys[k])
				ops = append(ops, o)
			}
			switch d := d.(type) {
			case *respConn:
				errs[i] = d.preload(ops)
			case *httpConn:
				errs[i] = d.preload(ops)
			}
		}(i, d)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if e.tb != nil { // preload calls are not part of any measured request
		for _, d := range e.laneConns {
			if rd := d.(*respConn); rd.sess != nil {
				rd.sess.takeChildren(nil)
			}
		}
	}
	return nil
}

func (e *servedEnv) conns() []conn { return e.laneConns }

// nvmNow is the registry's device traffic: every session's (published per
// burst or per request), the GC's and the resize machinery's.
func (e *servedEnv) nvmNow() nvm.Stats { return e.st.MetricsSnapshot().NVM }

func (e *servedEnv) snapshot() (obs.Snapshot, bool) { return e.st.MetricsSnapshot(), true }

func (e *servedEnv) deviceBytes() int64 { return e.dev.Words() * nvm.WordBytes }

// quiesce closes the client lanes and stops the servers, so every session
// has published its traffic and been returned.
func (e *servedEnv) quiesce() error {
	for _, d := range e.laneConns {
		d.close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var err error
	if e.rsrv != nil {
		err = e.rsrv.Shutdown(ctx)
	}
	if e.hsrv != nil {
		err = errors.Join(err, e.hsrv.Shutdown(ctx))
	}
	if e.ln != nil {
		if serr := <-e.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		e.ln = nil
	}
	return errors.Join(err, e.srv.Close())
}

// check runs the end-of-run assertions on a quiesced store: the key count,
// the value log's liveness accounting and the index invariants. The GC is
// first brought to rest: passes run until the free-segment count is above
// the trigger, after which the background worker stays idle, and one more
// pass waits out any pass it had in flight.
func (e *servedEnv) check(wantCount int64) []error {
	var errs []error
	if got := e.st.Count(); got != wantCount {
		errs = append(errs, fmt.Errorf("Count = %d, want %d distinct keys acknowledged", got, wantCount))
	}
	for i := 0; i < 4096 && e.st.Log().FreeSegments() <= e.trigg; i++ {
		if progress, err := e.st.GCOnce(); err != nil || !progress {
			break
		}
	}
	if _, err := e.st.GCOnce(); err != nil {
		errs = append(errs, fmt.Errorf("GC pass: %w", err))
	}
	if err := e.st.AuditLiveness(); err != nil {
		errs = append(errs, err)
	}
	return append(errs, e.st.Index().CheckInvariants()...)
}

func (e *servedEnv) close() {
	if e.ln != nil {
		e.quiesce()
	}
	e.st.Close()
}

// respConn is one RESP connection.
type respConn struct {
	cn    *client.Conn
	w     Workload
	codec valueCodec
	sess  *tracedSession // traced runs: this connection's server session
	vbuf  []byte
	vals  [][]byte
}

var (
	cmdGet = []byte("GET")
	cmdSet = []byte("SET")
)

// dialRESP connects and completes one round trip, so the server has
// created this connection's session before the next connection is opened.
func dialRESP(addr string, w Workload) (*respConn, error) {
	cn, err := client.Dial(addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	if r, err := cn.Do([]byte("PING")); err != nil || r.Err() != nil {
		cn.Close()
		return nil, fmt.Errorf("ping: %v %v", err, r.Err())
	}
	d := &respConn{cn: cn, w: w, codec: valueCodec{n: w.ValueLen}}
	d.vbuf = make([]byte, w.Depth*w.ValueLen)
	return d, nil
}

func (d *respConn) exec(batch []op, res []reply) error {
	for i, o := range batch {
		k := o.key[:]
		if o.kind == opSet {
			v := d.codec.encode(d.vbuf[i*d.w.ValueLen:], k, o.ver)
			if err := d.cn.Send(cmdSet, k, v); err != nil {
				return err
			}
		} else if err := d.cn.Send(cmdGet, k); err != nil {
			return err
		}
	}
	if err := d.cn.Flush(); err != nil {
		return err
	}
	for i, o := range batch {
		r, err := d.cn.Recv()
		if err != nil {
			return err
		}
		res[i] = reply{end: now(), err: r.Err()}
		switch {
		case res[i].err != nil:
		case o.kind == opSet:
			if r.Kind != client.ReplySimple || r.Str != "OK" {
				res[i].err = fmt.Errorf("SET reply %+v", r)
			}
		case r.Kind == client.ReplyBulk:
			res[i].found, res[i].val = true, r.Bulk
		case r.Kind != client.ReplyNil:
			res[i].err = fmt.Errorf("GET reply %+v", r)
		}
	}
	return nil
}

// preload sends the version-0 SETs ops holds, pipelined 64 at a time.
func (d *respConn) preload(ops []op) error {
	res := make([]reply, 64)
	if cap(d.vbuf) < 64*d.w.ValueLen {
		d.vbuf = make([]byte, 64*d.w.ValueLen)
	}
	for lo := 0; lo < len(ops); lo += 64 {
		batch := ops[lo:min(lo+64, len(ops))]
		if err := d.exec(batch, res[:len(batch)]); err != nil {
			return err
		}
		for _, r := range res[:len(batch)] {
			if r.err != nil {
				return fmt.Errorf("preload: %w", r.err)
			}
		}
	}
	return nil
}

func (d *respConn) takeChildren(dst []span) []span {
	if d.sess == nil {
		return dst
	}
	return d.sess.takeChildren(dst)
}

func (d *respConn) close() error { return d.cn.Close() }

// httpConn is one keep-alive HTTP connection.
type httpConn struct {
	base  string
	w     Workload
	codec valueCodec
	c     *http.Client
	vbuf  []byte
	body  bytes.Buffer
}

func newHTTPConn(base string, w Workload) *httpConn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &httpConn{
		base: base, w: w, codec: valueCodec{n: w.ValueLen},
		c:    &http.Client{Transport: tr, Timeout: 30 * time.Second},
		vbuf: make([]byte, w.ValueLen),
	}
}

func (d *httpConn) exec(batch []op, res []reply) error {
	for i, o := range batch {
		k := o.key[:]
		url := d.base + "/kv/" + string(k)
		var req *http.Request
		var err error
		if o.kind == opSet {
			v := d.codec.encode(d.vbuf, k, o.ver)
			req, err = http.NewRequest(http.MethodPut, url, bytes.NewReader(v))
		} else {
			req, err = http.NewRequest(http.MethodGet, url, nil)
		}
		if err != nil {
			return err
		}
		resp, err := d.c.Do(req)
		if err != nil {
			return err
		}
		d.body.Reset()
		_, err = d.body.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		r := reply{end: now()}
		switch {
		case o.kind == opSet && resp.StatusCode == http.StatusNoContent:
		case o.kind != opSet && resp.StatusCode == http.StatusOK:
			r.found, r.val = true, d.body.Bytes()
		case o.kind != opSet && resp.StatusCode == http.StatusNotFound:
		default:
			r.err = fmt.Errorf("%s %s: status %d: %.80s", req.Method, k, resp.StatusCode, d.body.String())
		}
		res[i] = r
	}
	return nil
}

// preload sends the version-0 SETs ops holds as POST /batch put requests of
// 256 ops.
func (d *httpConn) preload(ops []op) error {
	type batchOp struct {
		Op    string `json:"op"`
		Key   string `json:"key"`
		Value []byte `json:"value"`
	}
	for lo := 0; lo < len(ops); lo += 256 {
		hi := min(lo+256, len(ops))
		req := make([]batchOp, 0, hi-lo)
		for _, o := range ops[lo:hi] {
			req = append(req, batchOp{Op: "put", Key: string(o.key[:]), Value: d.codec.encode(make([]byte, d.codec.n), o.key[:], 0)})
		}
		body, err := json.Marshal(struct {
			Ops []batchOp `json:"ops"`
		}{req})
		if err != nil {
			return err
		}
		resp, err := d.c.Post(d.base+"/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		var out struct {
			Results []struct {
				Status string `json:"status"`
			} `json:"results"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || len(out.Results) != hi-lo {
			return fmt.Errorf("preload batch: status %d, %d results, %v", resp.StatusCode, len(out.Results), err)
		}
		for _, r := range out.Results {
			if r.Status != "ok" {
				return fmt.Errorf("preload batch: op status %q", r.Status)
			}
		}
	}
	return nil
}

func (d *httpConn) close() error {
	d.c.CloseIdleConnections()
	return nil
}
