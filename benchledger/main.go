// Command benchledger is the HDNH benchmark: closed-loop workloads from
// in-process library reads to pipelined RESP churn, run on the emulated
// Optane device, with every reply checked and every result stamped.
//
//	benchledger -workload resp-small-d1 -seed 1 -seconds 10 -trace 0
//	benchledger -workload all -seed 1 -seconds 10
//	benchledger compare base.jsonl head.jsonl
//
// With -trace 0 the run reports the end-to-end metrics; with -trace 1 it
// runs the same seeded op stream twice, untraced and traced, and reports the
// per-layer metrics plus the tracing overhead. The last line of standard
// output is one JSON object: correct, attempted, failed and metrics. See
// README.md for the workloads, the metrics and the layer each one measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	out     string // directory for result records, span dumps, goroutine dumps
	src     string // checkout root whose sources the stamp digests
	log     io.Writer
	stdout  io.Writer
	// hard is when the whole run must have ended; past it the watchdog
	// reports what finished and exits.
	hard time.Time
}

// runBudget bounds one workload's run, set-ups and checks included; past
// it the watchdog ends the run (the benchmark must exit within 180 s).
const runBudget = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	var (
		workload = flag.String("workload", "", "workload name, or all")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "measured seconds per phase")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		out      = flag.String("out", ".bench_build/benchledger-runs", "directory for result records and dumps")
		src      = flag.String("src", ".", "checkout root (digested into the result stamp)")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchledger: -seconds must be positive, -trace 0 or 1")
		os.Exit(2)
	}
	var list []Workload
	if *workload == "all" {
		list = workloads
	} else {
		w, err := findWorkload(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchledger:", err)
			os.Exit(2)
		}
		list = []Workload{w}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchledger:", err)
		os.Exit(1)
	}
	stampBase, err := newStamp(*src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchledger: stamp:", err)
		os.Exit(1)
	}
	var results []*result
	for _, w := range list {
		cfg := config{
			seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
			out: *out, src: *src, log: os.Stderr, stdout: os.Stdout,
			hard: time.Now().Add(runBudget),
		}
		st := stampBase
		st.Workload, st.Seed, st.Seconds, st.Trace = w.Name, cfg.seed, *seconds, cfg.trace
		res := runGuarded(w, cfg, st)
		res.print(os.Stdout)
		if err := res.save(filepath.Join(*out, "results.jsonl")); err != nil {
			fmt.Fprintln(os.Stderr, "benchledger: saving result:", err)
		}
		results = append(results, res)
		if res.Wedged {
			break
		}
	}
	if len(results) == 1 {
		results[0].printFinal(os.Stdout)
		return
	}
	combined := &result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range results {
		combined.Correct = combined.Correct && r.Correct
		combined.Attempted += r.Attempted
		combined.Failed += r.Failed
		for name, m := range r.Metrics {
			combined.Metrics[r.Stamp.Workload+"/"+name] = m
		}
	}
	combined.printFinal(os.Stdout)
}

// runGuarded runs one workload under the run watchdog: if the run has not
// ended by cfg.hard, the watchdog writes a goroutine dump to the run's log,
// reports what the run measured so far with every unanswered op failed, and
// exits. A wedged store therefore shows up as failures, never as a hang.
func runGuarded(w Workload, cfg config, st stamp) *result {
	r := &run{w: w, cfg: cfg, stamp: st}
	done := make(chan *result, 1)
	go func() { done <- r.execute() }()
	select {
	case res := <-done:
		return res
	case <-time.After(time.Until(cfg.hard)):
		res := r.abandon("run deadline passed")
		res.print(cfg.stdout)
		if err := res.save(filepath.Join(cfg.out, "results.jsonl")); err != nil {
			fmt.Fprintln(cfg.log, "benchledger: saving result:", err)
		}
		res.printFinal(cfg.stdout)
		os.Exit(0)
		return nil
	}
}

// dumpGoroutines writes every goroutine's stack to the run's log (standard
// error) and to a file under the output directory.
func dumpGoroutines(cfg config, name, why string) {
	buf := make([]byte, 8<<20)
	buf = buf[:runtime.Stack(buf, true)]
	path := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-goroutines.txt", name, cfg.seed))
	fmt.Fprintf(cfg.log, "benchledger: %s: %s; goroutine dump follows (also in %s)\n%s\n", name, why, path, buf)
	os.WriteFile(path, buf, 0o644) // best effort: the dump is already in the log
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int64   `json:"n,omitempty"` // samples behind the figure
	Note  string  `json:"note,omitempty"`
}

// result is one workload run's outcome.
type result struct {
	Stamp      stamp             `json:"stamp"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	Violations []string          `json:"violations,omitempty"`
	Notes      []string          `json:"notes,omitempty"`
	Layers     string            `json:"layers,omitempty"`
	// Wedged marks a run whose phase never ended; its goroutines are still
	// stuck, so the process runs nothing after it.
	Wedged bool `json:"wedged,omitempty"`
}

func (r *result) print(w io.Writer) {
	s := r.Stamp
	fmt.Fprintf(w, "# %s seed=%d seconds=%d trace=%v\n", s.Workload, s.Seed, s.Seconds, s.Trace)
	fmt.Fprintf(w, "# stamp commit=%s bench=%s go=%s nproc=%d gomaxprocs=%d device=%s ops=%d host=%s\n",
		s.Commit, s.Bench, s.GoVersion, s.NProc, s.GOMAXPROCS, s.Device, s.Ops, s.Host)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		note := ""
		if m.Note != "" {
			note = "  (" + m.Note + ")"
		}
		fmt.Fprintf(w, "%-32s %14.4f %-6s n=%d%s\n", n, m.Value, m.Unit, m.N, note)
	}
	frac := 0.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%-32s %14.6f %-6s n=%d (failed %d of %d attempted)\n", "failed_frac", frac, "ratio", r.Attempted, r.Failed, r.Attempted)
	if r.Layers != "" {
		fmt.Fprintln(w, r.Layers)
	}
	for _, v := range r.Violations {
		fmt.Fprintln(w, "violation:", v)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
}

// recordedOnly names the metrics printed and recorded but left out of the
// final line, which carries the metrics BENCHMARK.json gates on. The p99.9
// tails spread too widely between runs on a small shared host to gate on
// (see README.md).
var recordedOnly = map[string]bool{"get_p999_us": true, "set_p999_us": true}

// printFinal writes the one-line JSON result the benchmark contract asks
// for: correct, attempted, failed, and each metric's value and unit.
func (r *result) printFinal(w io.Writer) {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, map[string]valueUnit{}}
	for n, m := range r.Metrics {
		if !recordedOnly[n[strings.LastIndex(n, "/")+1:]] { // "all" prefixes the workload
			out.Metrics[n] = valueUnit{m.Value, m.Unit}
		}
	}
	b, _ := json.Marshal(out) // plain structs of numbers and strings
	fmt.Fprintln(w, string(b))
}

// save appends the full result, stamp included, to the results file the
// compare subcommand reads.
func (r *result) save(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (r *result) violate(msgs ...string) {
	if len(msgs) == 0 {
		return
	}
	r.Correct = false
	r.Failed += int64(len(msgs))
	r.Violations = append(r.Violations, msgs...)
}

func joinErrs(errs []error) []string {
	out := make([]string, len(errs))
	for i, e := range errs {
		out[i] = strings.TrimSpace(e.Error())
	}
	return out
}
