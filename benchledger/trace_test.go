package main

import (
	"testing"

	"hdnh/internal/batchrun"
	"hdnh/internal/bigkv"
	"hdnh/internal/nvm"
)

func TestCoverCountsOnlyTheOverlap(t *testing.T) {
	parent := span{start: 100, end: 200, keys: 4}
	children := []span{
		{start: 90, end: 120, kind: spanGet, keys: 2},  // 20 inside
		{start: 130, end: 150, kind: spanSet, keys: 2}, // 20 inside
		{start: 190, end: 210, kind: spanSync},         // 10 inside
		{start: 300, end: 400, kind: spanGet},          // none inside
	}
	if got := cover(parent, children); got != 50 {
		t.Fatalf("cover = %d, want 50", got)
	}
	var a traceAgg
	a.addParent(parent, children)
	if self := a.parentNs - a.coveredNs; self != 50 {
		t.Fatalf("self time = %d, want 100 - 50", self)
	}
	if a.outsideNs != 170-50 {
		t.Fatalf("child time outside the parent = %d, want 120", a.outsideNs)
	}
	if a.parentOps != 4 || a.keys[spanGet] != 2 || a.calls[spanGet] != 2 {
		t.Fatalf("accounting %+v", a)
	}
}

func TestCoverOfNestedChildIsItsDuration(t *testing.T) {
	p := span{start: 0, end: 1000}
	if got := cover(p, []span{{start: 10, end: 900}}); got != 890 {
		t.Fatalf("cover = %d, want 890", got)
	}
	if got := cover(p, nil); got != 0 {
		t.Fatalf("cover of no children = %d", got)
	}
}

// TestKeysPerRunAccounting drives the RESP executor's coalescing through a
// traced session: every batchrun run is one Multi* call, so keys per run
// and ops per burst come straight from the recorded children.
func TestKeysPerRunAccounting(t *testing.T) {
	dev, err := nvm.New(nvm.DefaultConfig(4 << 20))
	if err != nil {
		t.Fatal(err)
	}
	st, err := bigkv.Create(dev, bigkv.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b := &tracedBackend{st: st}
	s := b.NewSession().(*tracedSession)
	defer s.Close()

	k := func(i int) []byte { return wireKey(int64(i)) }
	ops := []batchrun.Op{
		{Kind: batchrun.Put, Key: k(1), Value: []byte("a")},
		{Kind: batchrun.Put, Key: k(2), Value: []byte("b")},
		{Kind: batchrun.Get, Key: k(1)},
		{Kind: batchrun.Get, Key: k(2)},
		{Kind: batchrun.Get, Key: k(3)},
		{Kind: batchrun.Put, Key: k(3), Value: []byte("c")},
		{Kind: batchrun.Delete, Key: k(1)},
	}
	start := now()
	batchrun.Execute(s, ops, make([]batchrun.Result, len(ops)), nil)
	s.SyncObs()
	batchrun.Execute(s, ops[2:3], make([]batchrun.Result, 1), nil)
	s.SyncObs()
	end := now()

	var a traceAgg
	a.addParent(span{start: start, end: end, keys: int32(len(ops) + 1)}, s.takeChildren(nil))
	calls, keys := a.batchCalls()
	if calls != 5 || keys != 8 {
		t.Fatalf("runs = %d keys = %d, want 5 runs carrying 8 keys", calls, keys)
	}
	if a.calls[spanSync] != 2 {
		t.Fatalf("bursts = %d, want 2", a.calls[spanSync])
	}
	if a.keys[spanGet] != 4 || a.keys[spanSet] != 3 || a.keys[spanDelete] != 1 {
		t.Fatalf("keys per kind get %d set %d delete %d", a.keys[spanGet], a.keys[spanSet], a.keys[spanDelete])
	}
	if a.errs != 0 {
		t.Fatalf("errors = %d (a miss is not an error)", a.errs)
	}
	if a.outsideNs != 0 || a.coveredNs > a.parentNs {
		t.Fatalf("children escaped their parent: %+v", a)
	}
	if len(s.takeChildren(nil)) != 0 {
		t.Fatal("takeChildren left children behind")
	}
}
