package main

import (
	"slices"
	"testing"
	"time"
)

func seq(n int) []uint32 {
	s := make([]uint32, n)
	for i := range s {
		s[i] = uint32(i + 1)
	}
	return s
}

func TestTailNeedsTenSamplesBeyondP999(t *testing.T) {
	// 10 000 samples: rank 9990, exactly ten beyond it.
	v, label, ok := tail(seq(10_000))
	if !ok || label != "p99.9" || v != 9990 {
		t.Fatalf("n=10000: got %d %q ok=%v, want 9990 p99.9 ok", v, label, ok)
	}
	// One sample fewer leaves nine beyond p99.9: fall back to the highest
	// quantile with ten beyond, and say so.
	v, label, ok = tail(seq(9_999))
	if ok || v != 9989 || label != "p99.90" {
		t.Fatalf("n=9999: got %d %q ok=%v, want 9989 p99.90 not ok", v, label, ok)
	}
	v, label, ok = tail(seq(1000))
	if ok || v != 990 || label != "p99.00" {
		t.Fatalf("n=1000: got %d %q ok=%v, want 990 p99.00", v, label, ok)
	}
	if v, label, ok = tail(seq(7)); ok || v != 7 || label != "max" {
		t.Fatalf("n=7: got %d %q ok=%v, want max 7", v, label, ok)
	}
	if _, label, ok = tail(nil); ok || label != "none" {
		t.Fatalf("empty: got %q ok=%v", label, ok)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := seq(100)
	for _, c := range []struct {
		pm   int
		want uint32
	}{{500, 50}, {990, 99}, {999, 100}, {1, 1}} {
		if got := quantile(s, c.pm); got != c.want {
			t.Errorf("quantile(1..100, %d/1000) = %d, want %d", c.pm, got, c.want)
		}
	}
	if got := quantile([]uint32{42}, 500); got != 42 {
		t.Errorf("single sample median = %d", got)
	}
}

func TestSummarizeSortsAndScales(t *testing.T) {
	s := seq(20_000)
	slices.Reverse(s)
	l := summarize(s)
	if l.n != 20_000 || !l.tailOK || l.p50 != 10 || l.tail != 19.98 {
		t.Fatalf("summary %+v, want n=20000 p50 10us p99.9 19.98us", l)
	}
}

func TestSampleBufKeepsOrderAcrossChunks(t *testing.T) {
	var b sampleBuf
	for i := 0; i < 3*sampleChunk+5; i++ {
		b.add(uint32(i))
	}
	f := b.appendTo(nil)
	if len(f) != 3*sampleChunk+5 || len(b.chunks) != 4 {
		t.Fatalf("len %d chunks %d", len(f), len(b.chunks))
	}
	for i, v := range f {
		if v != uint32(i) {
			t.Fatalf("sample %d = %d", i, v)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", q)
	}
}

func TestThroughputIsMedianOfWholeSeconds(t *testing.T) {
	// The last, partial second is dropped; one stalled second does not
	// move the median.
	perSec := []int64{100, 10, 104, 98, 7}
	v, n := throughput(perSec, 4*time.Second, 319, 4200*time.Millisecond)
	if n != 4 || v != 99 {
		t.Fatalf("throughput = %v over %d windows, want 99 over 4", v, n)
	}
	if v, n = throughput(perSec, 500*time.Millisecond, 50, 500*time.Millisecond); n != 0 || v != 100 {
		t.Fatalf("sub-second phase: %v over %d windows, want ops/wall 100", v, n)
	}
}
