package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one request share their
// root through Parent links.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer keeps spans in memory while on and writes them out at the end.
// Off, begin and end cost one atomic load.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (t *tracer) start() {
	t.mu.Lock()
	t.t0 = time.Now()
	t.mu.Unlock()
	t.on.Store(true)
}

func (t *tracer) stop() { t.on.Store(false) }

// begin opens a span under parent (0 for a root) and returns its id, or
// 0 while tracing is off.
func (t *tracer) begin(name string, parent int) int {
	if !t.on.Load() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: ms(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = ms(time.Since(t.t0))
	t.mu.Unlock()
}

// spanSummary is the per-name roll-up: how many spans, their total
// duration, and their self time — duration minus the part of the span
// its children cover.
type spanSummary struct {
	Name    string
	Count   int
	TotalMS float64
	SelfMS  float64
}

func (t *tracer) summary() []spanSummary {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := map[string]*spanSummary{}
	for _, s := range t.spans {
		ss := by[s.Name]
		if ss == nil {
			ss = &spanSummary{Name: s.Name}
			by[s.Name] = ss
		}
		d := s.End - s.Start
		ss.Count++
		ss.TotalMS += d
		ss.SelfMS += d - covered(children[s.ID])
	}
	out := make([]spanSummary, 0, len(by))
	for _, ss := range by {
		out = append(out, *ss)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMS > out[j].TotalMS })
	return out
}

// covered is the length of the union of the spans' intervals (children
// of one span may overlap when they run concurrently).
func covered(spans []span) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	total, end := 0.0, -1.0
	for _, s := range spans {
		if s.Start > end {
			total += s.End - s.Start
			end = s.End
		} else if s.End > end {
			total += s.End - end
			end = s.End
		}
	}
	return total
}

// write saves the spans as JSON and prints the per-name roll-up.
func (t *tracer) write(dir, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.json", workload, seed))
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("spans (%d recorded, %s)\n  %-28s %7s %12s %12s\n", len(t.spans), path, "name", "count", "total ms", "self ms")
	for _, s := range t.summary() {
		fmt.Printf("  %-28s %7d %12.1f %12.1f\n", s.Name, s.Count, s.TotalMS, s.SelfMS)
	}
	return nil
}

// traced runs fn as the traced pass: spans on, CPU profile on, and the
// caller's heap snapshot (see heapProfile) taken while fn's state is
// live. Afterwards the CPU profile is folded into cpu_share.<layer>.
func (r *run) tracedPass(fn func() error) error {
	path := filepath.Join(r.outDir, fmt.Sprintf("%s-seed%d.cpu.pprof", r.workload, r.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	r.tr.start()
	err = fn()
	r.tr.stop()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	flat, err := foldProfile(path, "")
	if err != nil {
		return err
	}
	total := 0.0
	for _, v := range flat {
		total += v
	}
	for _, l := range cpuLayers {
		share := 0.0
		if total > 0 {
			share = flat[l] / total
		}
		r.layer["cpu_share."+l] = metric{share, "ratio"}
	}
	return nil
}

// heapProfile records the in-use heap, folded into heap_mb.<layer>. Call
// it at the end of the traced pass, while the workload's state is live.
func (r *run) heapProfile() error {
	if !r.traced {
		return nil
	}
	runtime.GC()
	path := filepath.Join(r.outDir, fmt.Sprintf("%s-seed%d.heap.pprof", r.workload, r.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	flat, err := foldProfile(path, "inuse_space")
	if err != nil {
		return err
	}
	for _, l := range heapLayers {
		r.layer["heap_mb."+l] = metric{flat[l] / (1 << 20), "MB"}
	}
	for _, l := range cpuLayers {
		if !slices.Contains(heapLayers, l) {
			r.layer["heap_mb.other"] = metric{r.layer["heap_mb.other"].Value + flat[l]/(1<<20), "MB"}
		}
	}
	return nil
}

// cpuLayers and heapLayers name the buckets profiles fold into: the
// program's packages, the standard-library layers the daemon leans on,
// the garbage collector, and everything else.
var (
	cpuLayers = []string{"sim", "cache", "arc", "ce", "coherence", "noc", "dram", "aim", "machine", "linetab", "core",
		"static", "witness", "workload", "trace", "bench", "server", "store", "net_http", "compress",
		"runtime_gc", "runtime_other", "other"}
	heapLayers = []string{"sim", "cache", "arc", "ce", "coherence", "machine", "linetab",
		"static", "witness", "workload", "trace", "bench", "server", "store", "runtime_other", "other"}
)

// gcFuncs are runtime functions that belong to the garbage collector
// (marking, sweeping, scavenging, write barriers).
var gcFuncs = []string{"gcBgMarkWorker", "gcDrain", "scanobject", "scanblock", "scanstack", "scanframe", "markroot",
	"greyobject", "findObject", "gcWork", "wbBuf", "sweep", "scavenge", "gcMark", "gcAssist", "gcStart",
	"typePointers", "heapBits", "markBits", "gcFlush", "bulkBarrier", "gcWriteBarrier"}

// layerOf maps a profile's function name to its bucket.
func layerOf(fn string) string {
	fn = strings.TrimSuffix(fn, " (inline)")
	fn = strings.TrimPrefix(fn, "type:.eq.")
	slash := strings.LastIndex(fn, "/")
	pkg := fn
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "runtime":
		for _, g := range gcFuncs {
			if strings.Contains(fn, g) {
				return "runtime_gc"
			}
		}
		return "runtime_other"
	case pkg == "net/http":
		return "net_http"
	case strings.HasPrefix(pkg, "compress/"):
		return "compress"
	case pkg == "arcsim/internal/static/witness":
		return "witness"
	case strings.HasPrefix(pkg, "arcsim/internal/"):
		name := strings.TrimPrefix(pkg, "arcsim/internal/")
		for _, l := range cpuLayers {
			if l == name {
				return l
			}
		}
	}
	return "other"
}

// foldProfile runs the toolchain's `go tool pprof -top` over a profile
// (offline) and sums the flat column by layer, in seconds for CPU
// profiles and bytes for heap profiles.
func foldProfile(path, sampleIndex string) (map[string]float64, error) {
	args := []string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0"}
	if sampleIndex != "" {
		args = append(args, "-sample_index="+sampleIndex)
	}
	cmd := exec.Command(goTool(), append(args, path)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %v: %s", path, err, stderr.String())
	}
	flat := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		v, ok := parseQuantity(f[0])
		if !ok {
			continue
		}
		flat[layerOf(strings.Join(f[5:], " "))] += v
	}
	return flat, sc.Err()
}

// parseQuantity reads one pprof -top value: a duration (to seconds) or a
// byte size (to bytes).
func parseQuantity(s string) (float64, bool) {
	i := strings.IndexFunc(s, func(c rune) bool { return (c < '0' || c > '9') && c != '.' })
	if i < 0 {
		i = len(s)
	}
	v, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, false
	}
	scale := map[string]float64{
		"": 1, "ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1, "mins": 60, "hrs": 3600,
		"B": 1, "kB": 1 << 10, "MB": 1 << 20, "GB": 1 << 30, "TB": 1 << 40,
	}
	m, ok := scale[s[i:]]
	return v * m, ok
}

// goTool finds the go command: on PATH, else next to this binary's
// toolchain root.
func goTool() string {
	if p, err := exec.LookPath("go"); err == nil {
		return p
	}
	return filepath.Join(runtime.GOROOT(), "bin", "go")
}
