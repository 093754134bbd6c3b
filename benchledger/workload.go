package main

import (
	"encoding/binary"
	"fmt"

	"hdnh/internal/hashfn"
	"hdnh/internal/kv"
	"hdnh/internal/ycsb"
)

// face is the entry point a workload drives.
type face int

const (
	faceLib  face = iota // in-process hdnh.Router sessions
	faceRESP             // resp.Server over loopback, resp/client connections
	faceHTTP             // serve.Server /kv/ over loopback, keep-alive
)

// lanes is the closed-loop client count of every workload: sessions for the
// library face, connections for the served faces.
const lanes = 2

// Workload is one input set the benchmark runs.
type Workload struct {
	Name string
	Face face
	// Preload keys [0, Preload) are written before the measured phase.
	Preload int64
	// SetSpace is the key range SETs draw from uniformly. Zero means SETs
	// draw from the read distribution over the preloaded keys; a value above
	// Preload makes the first SET of a key beyond the preload an insert.
	SetSpace int64
	// ValueLen is the value size in bytes (15 for the library's fixed slot
	// value).
	ValueLen int
	// Depth is how many requests a lane sends before waiting for replies.
	Depth int
	Mix   ycsb.Mix
	Dist  ycsb.Distribution
	Theta float64
	// LogLiveShare sizes the value log so the live data of every key in the
	// SET space fills this share of it; zero keeps hdnhserve's 8 MiB default.
	LogLiveShare float64
}

// workloads is the benchmark's fixed workload table (see README.md for the
// reasoning behind each).
var workloads = []Workload{
	// Library reads of the paper's table under zipf skew: the hot table,
	// OCF/SWAR filter, NVT walk and solo commits; no wire, bigkv or vlog.
	{
		Name:     "table-read-skew",
		Face:     faceLib,
		Preload:  1_000_000,
		ValueLen: kv.ValueSize,
		Depth:    1,
		Mix:      ycsb.Mix{Read: 0.90, ReadNegative: 0.05, Update: 0.05},
		Dist:     ycsb.ScrambledZipfian,
		Theta:    0.99,
	},
	// RESP at depth 1 with inline 8-B values: the wire (parse, queue
	// handoff, syscalls) dominates and every batchrun run has length 1.
	{
		Name:     "resp-small-d1",
		Face:     faceRESP,
		Preload:  200_000,
		ValueLen: 8,
		Depth:    1,
		Mix:      ycsb.Mix{Read: 0.8, Update: 0.2},
		Dist:     ycsb.Uniform,
	},
	// RESP at depth 64 with 200-B logged values and fresh keys: coalescing,
	// group commit, vlog append/read, GC and table growth.
	{
		Name:         "resp-pipe-churn",
		Face:         faceRESP,
		Preload:      100_000,
		SetSpace:     150_000,
		ValueLen:     200,
		Depth:        64,
		Mix:          ycsb.Mix{Read: 0.5, Update: 0.5},
		Dist:         ycsb.Uniform,
		LogLiveShare: 0.5,
	},
	// resp-pipe-churn without fresh keys: coalescing, group commit, vlog
	// append/read and GC at depth 64, with no inserts and no table growth.
	{
		Name:         "resp-pipe-logged",
		Face:         faceRESP,
		Preload:      100_000,
		ValueLen:     200,
		Depth:        64,
		Mix:          ycsb.Mix{Read: 0.5, Update: 0.5},
		Dist:         ycsb.Uniform,
		LogLiveShare: 0.5,
	},
	// The resp-small-d1 data and mix over HTTP /kv/ keep-alive: hdnhserve's
	// default face, internal/serve.
	{
		Name:     "http-small-d1",
		Face:     faceHTTP,
		Preload:  200_000,
		ValueLen: 8,
		Depth:    1,
		Mix:      ycsb.Mix{Read: 0.8, Update: 0.2},
		Dist:     ycsb.Uniform,
	},
}

func findWorkload(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// keySpace is the number of distinct keys a workload can touch.
func (w Workload) keySpace() int64 {
	if w.SetSpace > w.Preload {
		return w.SetSpace
	}
	return w.Preload
}

// opKind is a benchmark operation kind. Negative GETs are GETs for latency
// purposes; they are counted separately so op streams can be compared.
type opKind uint8

const (
	opGet opKind = iota
	opNegGet
	opSet
	numOpKinds
)

// latClass groups op kinds for latency: negative GETs are GETs.
type latClass uint8

const (
	latGet latClass = iota
	latSet
	numLatClasses
)

func classOf(k opKind) latClass {
	if k == opSet {
		return latSet
	}
	return latGet
}

// op is one generated request.
type op struct {
	kind opKind
	idx  int64  // key index: record space for get/set, negative space for neg_get
	key  kv.Key // the key the index names on the workload's face

	// Filled when the op is issued.
	ver   uint64 // version a set writes
	floor uint64 // checker floor a get is judged against
}

// opStream turns ycsb workers into the benchmark's op stream for one lane.
// Same (workload, seed, lane) gives the same stream.
type opStream struct {
	w    *ycsb.Worker
	setW *ycsb.Worker // nil: sets reuse the read distribution
}

func newOpStream(w Workload, seed uint64, lane int) (*opStream, error) {
	g, err := ycsb.New(ycsb.Config{RecordCount: w.Preload, Mix: w.Mix, Distribution: w.Dist, Theta: w.Theta, Seed: seed})
	if err != nil {
		return nil, err
	}
	s := &opStream{w: g.Worker(lane)}
	if w.SetSpace > w.Preload {
		sg, err := ycsb.New(ycsb.Config{RecordCount: w.SetSpace, Mix: ycsb.Mix{Update: 1}, Distribution: ycsb.Uniform, Seed: seed ^ 0x5e75ace})
		if err != nil {
			return nil, err
		}
		s.setW = sg.Worker(lane)
	}
	return s, nil
}

func (s *opStream) next() op {
	o := s.w.Next()
	switch o.Kind {
	case ycsb.OpRead:
		return op{kind: opGet, idx: o.Index}
	case ycsb.OpReadNegative:
		return op{kind: opNegGet, idx: o.Index}
	default: // the mixes hold only read, negative read and update
		if s.setW != nil {
			return op{kind: opSet, idx: s.setW.Next().Index}
		}
		return op{kind: opSet, idx: o.Index}
	}
}

// libKey is the library workload's key: internal/ycsb's binary 16-byte
// record key, or its disjoint negative-space key.
func libKey(o op) kv.Key {
	if o.kind == opNegGet {
		return ycsb.NegativeKey(o.idx)
	}
	return ycsb.RecordKey(o.idx)
}

// wireKey is the served workloads' 16-byte key for record index i: 'r' and
// 15 hex digits of a bijective scramble of i. It is printable so the HTTP
// face (whose /batch body carries keys as JSON strings) and the RESP face
// can share exactly the same data.
func wireKey(i int64) []byte {
	const mask = 1<<60 - 1
	x := (uint64(i) * 0x9e3779b97f4a7c15) & mask
	return []byte(fmt.Sprintf("r%015x", x))
}

// keyTag is the 64-bit fingerprint a value carries of the key it was
// written under.
func keyTag(key []byte) uint64 { return hashfn.Hash2(key) }

// valueCodec encodes a (key, version) pair into a value of the workload's
// size and checks a value read back. Every value carries its key (in full
// when the value has room, otherwise as a tag) and the version that wrote
// it; version 0 is the preload.
type valueCodec struct{ n int }

func (c valueCodec) encode(dst, key []byte, ver uint64) []byte {
	dst = dst[:c.n]
	switch {
	case c.n >= 24: // full key, 8-byte version, filler derived from both
		copy(dst, key)
		binary.LittleEndian.PutUint64(dst[16:], ver)
		x := keyTag(key) ^ hashfn.Mix64(ver+1)
		for i := 24; i < c.n; i++ {
			if i%8 == 0 {
				x = hashfn.Mix64(x)
			}
			dst[i] = byte(x >> (8 * (i % 8)))
		}
	case c.n >= 15: // 7-byte key tag, 8-byte version
		t := keyTag(key)
		for i := 0; i < 7; i++ {
			dst[i] = byte(t >> (8 * i))
		}
		binary.LittleEndian.PutUint64(dst[7:], ver)
	default: // 4-byte key tag, 4-byte version
		binary.LittleEndian.PutUint32(dst, uint32(keyTag(key)))
		binary.LittleEndian.PutUint32(dst[4:], uint32(ver))
	}
	return dst
}

// decode returns the version a value carries, or an error when the value
// is not one this codec wrote for key.
func (c valueCodec) decode(key, val []byte) (uint64, error) {
	if len(val) != c.n {
		return 0, fmt.Errorf("value length %d, want %d", len(val), c.n)
	}
	var ver uint64
	switch {
	case c.n >= 24:
		ver = binary.LittleEndian.Uint64(val[16:])
	case c.n >= 15:
		ver = binary.LittleEndian.Uint64(val[7:])
	default:
		ver = uint64(binary.LittleEndian.Uint32(val[4:]))
	}
	var buf [256]byte
	want := c.encode(buf[:], key, ver)
	if string(want) != string(val) {
		return 0, fmt.Errorf("value does not match key %q at version %d", key, ver)
	}
	return ver, nil
}
