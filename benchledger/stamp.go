package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// stamp identifies where and how a result was measured. Results are only
// comparable when everything but the commit, the seed and the op count
// matches: the same benchmark code, Go toolchain, CPU count, GOMAXPROCS,
// device mode, host, workload, run length and trace setting.
type stamp struct {
	// Commit digests the program's sources (every .go, go.mod and go.sum
	// file outside the benchmark's directory); Bench digests the
	// benchmark's own. The checkout the benchmark runs from is not a git
	// repository, so a content digest stands in for the commit id.
	Commit     string `json:"commit"`
	Bench      string `json:"bench"`
	GoVersion  string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Device     string `json:"device"`
	Host       string `json:"host"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Ops        int64  `json:"ops"`
}

// benchDir is the benchmark's directory name under the checkout root.
const benchDir = "benchledger"

func newStamp(root string) (stamp, error) {
	prog, bench, err := digestSources(root)
	if err != nil {
		return stamp{}, err
	}
	host, _ := os.Hostname() // an empty host still compares equal to itself
	return stamp{
		Commit:     prog,
		Bench:      bench,
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Device:     "emulate",
		Host:       host,
	}, nil
}

// digestSources hashes the Go sources under root, split into the program's
// and the benchmark's. Build outputs and hidden directories are skipped.
func digestSources(root string) (prog, bench string, err error) {
	hp, hb := sha256.New(), sha256.New()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h := hp
		if rel == benchDir || strings.HasPrefix(rel, benchDir+string(filepath.Separator)) {
			h = hb
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", "", err
	}
	return "src-" + hex.EncodeToString(hp.Sum(nil))[:12], "bench-" + hex.EncodeToString(hb.Sum(nil))[:12], nil
}

// comparable reports why two stamps' results may not be compared, or "".
func (s stamp) comparable(o stamp) string {
	type env struct {
		Bench, GoVersion, Device, Host, Workload string
		NProc, GOMAXPROCS, Seconds               int
		Trace                                    bool
	}
	a := env{s.Bench, s.GoVersion, s.Device, s.Host, s.Workload, s.NProc, s.GOMAXPROCS, s.Seconds, s.Trace}
	b := env{o.Bench, o.GoVersion, o.Device, o.Host, o.Workload, o.NProc, o.GOMAXPROCS, o.Seconds, o.Trace}
	if a != b {
		return fmt.Sprintf("stamps differ: %+v vs %+v", a, b)
	}
	return ""
}

// compareMain implements `benchledger compare base.jsonl head.jsonl`: it
// groups the two files' results by workload and trace setting, refuses to
// compare any group whose stamps differ, and prints each metric's median
// and quartiles on both sides with the change against the bound
// BENCHMARK.json sets.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 && len(args) != 3 {
		fmt.Fprintln(stderr, "usage: benchledger compare base.jsonl head.jsonl [BENCHMARK.json]")
		return 2
	}
	bounds := map[string]float64{}
	if len(args) == 3 {
		var spec struct {
			EndToEnd []struct {
				Name  string  `json:"name"`
				Bound float64 `json:"bound"`
			} `json:"end_to_end"`
		}
		b, err := os.ReadFile(args[2])
		if err == nil {
			err = json.Unmarshal(b, &spec)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchledger compare:", err)
			return 2
		}
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	base, err := loadResults(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "benchledger compare:", err)
		return 2
	}
	head, err := loadResults(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "benchledger compare:", err)
		return 2
	}
	groups := map[string][2][]*result{}
	for side, rs := range [][]*result{base, head} {
		for _, r := range rs {
			k := fmt.Sprintf("%s trace=%v", r.Stamp.Workload, r.Stamp.Trace)
			g := groups[k]
			g[side] = append(g[side], r)
			groups[k] = g
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	refused := false
	for _, k := range keys {
		g := groups[k]
		if len(g[0]) == 0 || len(g[1]) == 0 {
			fmt.Fprintf(stdout, "%s: only on one side, skipped\n", k)
			continue
		}
		ref := g[0][0].Stamp
		why := ""
		for _, r := range append(slices.Clone(g[0]), g[1]...) {
			if why = ref.comparable(r.Stamp); why != "" {
				break
			}
		}
		if why != "" {
			fmt.Fprintf(stdout, "%s: REFUSED, %s\n", k, why)
			refused = true
			continue
		}
		fmt.Fprintf(stdout, "%s: base %s (%d runs) vs head %s (%d runs)\n", k, g[0][0].Stamp.Commit, len(g[0]), g[1][0].Stamp.Commit, len(g[1]))
		names := map[string]string{}
		for _, r := range append(slices.Clone(g[0]), g[1]...) {
			for n, m := range r.Metrics {
				names[n] = m.Unit
			}
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		for _, n := range sorted {
			bq := quartiles(values(g[0], n))
			hq := quartiles(values(g[1], n))
			change := ratio(hq[1]-bq[1], bq[1])
			verdict := ""
			if b, ok := bounds[n]; ok {
				verdict = fmt.Sprintf("bound %.2f", b)
			}
			fmt.Fprintf(stdout, "  %-32s base %12.4f [%.4f, %.4f]  head %12.4f [%.4f, %.4f]  %+7.2f%% %s %s\n",
				n, bq[1], bq[0], bq[2], hq[1], hq[0], hq[2], 100*change, names[n], verdict)
		}
	}
	if refused {
		return 1
	}
	return 0
}

func loadResults(path string) ([]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		r := &result{}
		if err := json.Unmarshal(sc.Bytes(), r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

func values(rs []*result, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method Python's statistics.quantiles uses by default.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		// Position i*(n+1)/4, 1-based, interpolated and clamped.
		pos := float64(i*(n+1)) / 4
		j := int(pos)
		frac := pos - float64(j)
		switch {
		case j < 1:
			q[i-1] = s[0]
		case j >= n:
			q[i-1] = s[n-1]
		default:
			q[i-1] = s[j-1] + frac*(s[j]-s[j-1])
		}
	}
	return q
}
