// Command hilpbench is the repository benchmark: it runs one seeded workload
// against the HILP evaluator for a fixed time, checks every output, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer metrics)
// as one JSON object on the last line of standard output.
//
// Run it through benchmark/run.sh from the root of a checkout:
//
//	bash benchmark/run.sh --workload solve-fine --seed 1 --seconds 30 --trace 0
//
// Workloads: solve-fine, sweep-dse, serve-mixed. See benchmark/README.md.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run, trace func(*runner) error
}{
	"solve-fine":  {(*runner).solveFine, (*runner).solveFineTrace},
	"sweep-dse":   {(*runner).sweepDSE, (*runner).sweepDSETrace},
	"serve-mixed": {(*runner).serveMixed, (*runner).serveMixedTrace},
}

// runner carries one benchmark run: its settings, its op accounting and the
// metrics it reports.
type runner struct {
	workload string
	seed     int64
	seconds  time.Duration
	tmp      string // scratch space inside the checkout

	attempted, failed int
	violations        int
	m                 *metrics
	spans             *tracer
}

// op tracks the checks of one operation: a design point or an HTTP request.
type op struct {
	r   *runner
	bad bool
}

func (r *runner) begin() *op {
	r.attempted++
	return &op{r: r}
}

// require records a violated check against the op.
func (o *op) require(ok bool, format string, args ...any) {
	if ok {
		return
	}
	o.bad = true
	o.r.violation(format, args...)
}

// end counts the op as failed if any of its checks failed.
func (o *op) end() {
	if o.bad {
		o.r.failed++
	}
}

// violation reports a failed check; the first few go to standard error.
func (r *runner) violation(format string, args ...any) {
	r.violations++
	if r.violations <= 10 {
		fmt.Fprintf(os.Stderr, "hilpbench: check failed: "+format+"\n", args...)
	}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(mainErr()) }

func mainErr() int {
	workload := flag.String("workload", "", "workload to run: solve-fine, sweep-dse or serve-mixed")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 30, "measured time of the run")
	trace := flag.Int("trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	wl, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "hilpbench: need --workload solve-fine|sweep-dse|serve-mixed, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "hilpbench: %v\n", err)
		return 1
	}
	tmp := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "hilpbench: %v\n", err)
		return 1
	}
	r := &runner{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		tmp:      tmp,
		m:        newMetrics(),
	}
	fn := wl.run
	if *trace == 1 {
		fn = wl.trace
		r.spans = &tracer{}
	}
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "hilpbench: %s: %v\n", r.workload, err)
		return 1
	}
	want := endToEndNames
	if *trace == 0 {
		r.m.set("rss_peak_mb", "MB", peakRSSMB())
	} else {
		want = nil
		for _, l := range perLayerNames {
			want = append(want, l.name)
		}
		err = r.spans.write(filepath.Join(root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", r.workload, r.seed)))
	}
	if err == nil {
		err = r.m.check(want)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hilpbench: %v\n", err)
		return 1
	}

	host := hostInfo(root)
	host["workload"] = r.workload
	host["seed"] = r.seed
	host["seconds"] = *seconds
	host["trace"] = *trace
	hostLine, _ := json.Marshal(map[string]any{"host": host})
	fmt.Println(string(hostLine))
	for _, name := range r.m.names {
		v := r.m.values[name]
		line := fmt.Sprintf("%-32s %14.6g %s", name, v.Value, v.Unit)
		if n := r.m.notes[name]; n != "" {
			line += "  (" + n + ")"
		}
		fmt.Println(line)
	}
	res := result{
		Correct:   r.violations == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.m.values,
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hilpbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// allocMB returns the bytes allocated so far by the process, in MB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostInfo describes where and on what the numbers were measured, so results
// from different hosts or sources are never compared blindly.
func hostInfo(root string) map[string]any {
	return map[string]any{
		"cpu":           cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        envOr("HILPBENCH_COMMIT", "unknown"),
		"source_sha256": sourceDigest(root),
	}
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the Go sources and module files of the checkout, which
// identifies the code measured even where the checkout is not a git
// repository.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		rel, _ := filepath.Rel(root, path)
		f, err := os.Open(path)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
