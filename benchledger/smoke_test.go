package main

import (
	"io"
	"math"
	"runtime"
	"testing"
	"time"
)

// tiny shrinks a workload to smoke-test size, keeping its face, mix, depth,
// value size and the shape of its key spaces.
func tiny(w Workload) Workload {
	if w.SetSpace > 0 {
		w.SetSpace = w.SetSpace * 4000 / w.Preload
	}
	w.Preload = 4000
	return w
}

// knownDefects names the workloads whose runs may fail on defects of the
// program rather than of the benchmark; their violations are only logged.
var knownDefects = map[string]string{
	"resp-pipe-churn": "resize wedge and duplicate-key commits under growth (ROADMAP (a), (b))",
}

// TestSmokeEachWorkload runs every workload at tiny size, untraced and
// traced, and checks that each run ends, reports every metric BENCHMARK.json
// names and, outside knownDefects, is correct with no failed op.
func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e := []string{"throughput_ops", "get_p50_us", "get_p999_us", "set_p50_us", "set_p999_us", "setup_s", "nvm_write_amp", "dram_mb"}
	layer := []string{"nvm.stall_us_per_op", "core.get_us", "trace.overhead_frac", "trace.per_op_us", "trace.layer_sum_us", "trace.unattributed_us", "proc.cpu_us_per_op"}
	for _, w := range workloads {
		w := tiny(w)
		for _, traced := range []bool{false, true} {
			cfg := config{
				seed: 3, seconds: 300 * time.Millisecond, trace: traced,
				out: t.TempDir(), log: io.Discard, stdout: io.Discard,
				hard: time.Now().Add(2 * time.Minute),
			}
			r := &run{w: w, cfg: cfg, stamp: stamp{Workload: w.Name, Trace: traced}}
			res := r.execute()
			if res.Wedged || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: wedged=%v attempted=%d", w.Name, traced, res.Wedged, res.Attempted)
			}
			if why, known := knownDefects[w.Name]; known {
				for _, v := range res.Violations {
					t.Logf("%s trace=%v: violation (known: %s): %s", w.Name, traced, why, v)
				}
			} else if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d of %d; violations %q; notes %q",
					w.Name, traced, res.Correct, res.Failed, res.Attempted, res.Violations, res.Notes)
			}
			want := e2e
			if traced {
				want = layer
			}
			for _, name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, name)
				}
			}
			if !traced {
				for _, name := range []string{"throughput_ops", "get_p50_us", "setup_s", "nvm_write_amp"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.Name, name, res.Metrics[name].Value)
					}
				}
			}
		}
	}
}

// TestDRAMIsStoreOnly checks that dram_mb counts the store and nothing the
// benchmark allocates for its run: a tiny run's figure must match the heap
// the same store holds straight after set-up, with no checker or phase
// alive. The checker alone (its per-key array and two 512 KiB tick indexes)
// would shift the figure by over 1 MiB.
func TestDRAMIsStoreOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads")
	}
	for _, name := range []string{"table-read-skew", "resp-small-d1"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		w = tiny(w)
		cfg := config{
			seed: 5, seconds: 300 * time.Millisecond,
			out: t.TempDir(), log: io.Discard, stdout: io.Discard,
			hard: time.Now().Add(2 * time.Minute),
		}
		r := &run{w: w, cfg: cfg, stamp: stamp{Workload: w.Name}}
		goroutines := runtime.NumGoroutine()
		res := r.execute()
		got, ok := res.Metrics["dram_mb"]
		if !ok {
			t.Fatalf("%s: no dram_mb; violations %q", name, res.Violations)
		}
		awaitGoroutines(goroutines)
		base := heapAfterGC()
		e, err := r.setup(false)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.quiesce(); err != nil {
			t.Fatal(err)
		}
		want := storeHeapMB(base, e)
		e.close()
		t.Logf("%s: dram_mb %.3f MiB, store after set-up %.3f MiB", name, got.Value, want)
		if math.Abs(got.Value-want) > 0.25 {
			t.Errorf("%s: dram_mb = %.3f MiB, want the store's %.3f MiB within 0.25", name, got.Value, want)
		}
	}
}
