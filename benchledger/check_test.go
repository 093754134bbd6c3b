package main

import (
	"strings"
	"testing"
)

func TestCheckerJudgesReadsAgainstAcknowledgedWrites(t *testing.T) {
	c := newChecker(4, 2) // keys 0,1 preloaded; 2,3 fresh

	// Before any write: the preload value (version 0) for preloaded keys,
	// absence for fresh ones.
	if err := c.judgeRead(0, c.beginRead(0), true, 0); err != nil {
		t.Fatalf("preload value rejected: %v", err)
	}
	if err := c.judgeRead(0, c.beginRead(0), false, 0); err == nil {
		t.Fatal("missing preloaded key accepted")
	}
	if err := c.judgeRead(2, c.beginRead(2), false, 0); err != nil {
		t.Fatalf("absent fresh key rejected: %v", err)
	}

	v1 := c.beginWrite(0)
	// In flight: old or new value both fine.
	floor := c.beginRead(0)
	if c.judgeRead(0, floor, true, 0) != nil || c.judgeRead(0, floor, true, v1) != nil {
		t.Fatal("read overlapping a write must accept old and new")
	}
	c.ackWrite(0, v1)
	floor = c.beginRead(0)
	if err := c.judgeRead(0, floor, true, 0); err == nil {
		t.Fatal("preload value accepted after a write was acknowledged")
	}
	if err := c.judgeRead(0, floor, true, v1); err != nil {
		t.Fatalf("acknowledged value rejected: %v", err)
	}

	// Two overlapping writes may land in either order.
	a, b := c.beginWrite(0), c.beginWrite(0)
	c.ackWrite(0, b)
	c.ackWrite(0, a)
	floor = c.beginRead(0)
	if err := c.judgeRead(0, floor, true, a); err != nil {
		t.Fatalf("overlapping earlier write rejected: %v", err)
	}
	if err := c.judgeRead(0, floor, true, b); err != nil {
		t.Fatalf("overlapping later write rejected: %v", err)
	}
	// A write that finished before another began is stale once that one is
	// acknowledged.
	d := c.beginWrite(0)
	c.ackWrite(0, d)
	floor = c.beginRead(0)
	if err := c.judgeRead(0, floor, true, a); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("stale value accepted: %v", err)
	}
	// A version written to another key is never acceptable.
	e := c.beginWrite(1)
	if err := c.judgeRead(0, c.beginRead(0), true, e); err == nil {
		t.Fatal("another key's version accepted")
	}

	// Fresh key: missing is wrong once a write is acknowledged.
	f := c.beginWrite(3)
	c.ackWrite(3, f)
	if err := c.judgeRead(3, c.beginRead(3), false, 0); err == nil {
		t.Fatal("missing key accepted after an acknowledged write")
	}
	if got := c.ackedKeys(); got != 3 {
		t.Fatalf("ackedKeys = %d, want 2 preloaded + 1 fresh", got)
	}
}

func TestValueCodecCarriesKeyAndVersion(t *testing.T) {
	for _, n := range []int{8, 15, 200} {
		c := valueCodec{n: n}
		k, other := wireKey(7), wireKey(8)
		v := append([]byte(nil), c.encode(make([]byte, n), k, 12345)...)
		if ver, err := c.decode(k, v); err != nil || ver != 12345 {
			t.Fatalf("n=%d: decode = %d, %v", n, ver, err)
		}
		if _, err := c.decode(other, v); err == nil {
			t.Fatalf("n=%d: value accepted under another key", n)
		}
		// The key tag (first bytes) and the filler are checked here; a
		// changed version is the checker's to catch.
		for _, i := range []int{0, n - 1} {
			if n < 24 && i == n-1 {
				continue
			}
			bad := append([]byte(nil), v...)
			bad[i] ^= 1
			if _, err := c.decode(k, bad); err == nil {
				t.Fatalf("n=%d: value with byte %d flipped accepted", n, i)
			}
		}
		if _, err := c.decode(k, v[:n-1]); err == nil {
			t.Fatalf("n=%d: short value accepted", n)
		}
	}
}

func TestWireKeysAreDistinctPrintableSixteenBytes(t *testing.T) {
	seen := map[string]bool{}
	for i := int64(0); i < 200_000; i++ {
		k := wireKey(i)
		if len(k) != 16 || seen[string(k)] {
			t.Fatalf("key %d: %q", i, k)
		}
		seen[string(k)] = true
	}
}

func TestOpStreamIsSeeded(t *testing.T) {
	w, _ := findWorkload("resp-pipe-churn")
	a, _ := newOpStream(w, 7, 1)
	b, _ := newOpStream(w, 7, 1)
	c, _ := newOpStream(w, 8, 1)
	same, fresh := true, 0
	for i := 0; i < 10_000; i++ {
		x, y, z := a.next(), b.next(), c.next()
		if x != y {
			t.Fatalf("op %d differs for one seed: %+v vs %+v", i, x, y)
		}
		same = same && x == z
		if x.kind == opSet && x.idx >= w.Preload {
			fresh++
		}
	}
	if same {
		t.Fatal("different seeds gave the same stream")
	}
	if fresh == 0 {
		t.Fatal("no SET reached beyond the preload")
	}
}
