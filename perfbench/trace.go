package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// allocMeter reads the process-wide cumulative Go heap allocation counters
// (bytes and objects). runtime/metrics serves them without stopping the
// world, so reading them around every layer call is cheap; the meter keeps
// its sample buffer, so a read allocates nothing the next read would count.
// One meter serves one goroutine.
type allocMeter [2]metrics.Sample

func newAllocMeter() allocMeter {
	return allocMeter{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
}

func (m *allocMeter) read() (bytes, objects uint64) {
	metrics.Read(m[:])
	return m[0].Value.Uint64(), m[1].Value.Uint64()
}

// span is one timed call into a layer. Spans of one benchmark operation
// share Op; Parent is the ID of the enclosing span (0 for an operation's
// root). Allocation deltas are process-wide, so they are exact only when
// the operation runs alone.
type span struct {
	ID         int64  `json:"id"`
	Parent     int64  `json:"parent"`
	Op         int64  `json:"op"`
	Name       string `json:"name"`
	StartNs    int64  `json:"start_ns"`
	EndNs      int64  `json:"end_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
	AllocObjs  uint64 `json:"alloc_objects"`
}

// layer is the module a span name belongs to: the part before the first dot
// ("pm.optimize" is in layer "pm", "bench.compile" in the harness itself).
func (s *span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced runs call the same helpers.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a started span; close it exactly once with end.
type open struct {
	tr     *tracer
	s      span
	meter  allocMeter
	bytes0 uint64
	objs0  uint64
}

// begin starts a span under parent (0 for an operation root).
func (t *tracer) begin(op, parent int64, name string) *open {
	if t == nil {
		return nil
	}
	o := &open{tr: t, s: span{ID: t.next.Add(1), Parent: parent, Op: op, Name: name}, meter: newAllocMeter()}
	o.bytes0, o.objs0 = o.meter.read()
	o.s.StartNs = int64(time.Since(t.t0))
	return o
}

// id is the span's ID, the parent for spans opened inside it (0 untraced).
func (o *open) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *open) end() {
	if o == nil {
		return
	}
	o.s.EndNs = int64(time.Since(o.tr.t0))
	b, n := o.meter.read()
	o.s.AllocBytes, o.s.AllocObjs = b-o.bytes0, n-o.objs0
	o.tr.mu.Lock()
	o.tr.spans = append(o.tr.spans, o.s)
	o.tr.mu.Unlock()
}

// call runs f inside a span; untraced it only runs f.
func (t *tracer) call(op, parent int64, name string, f func()) {
	o := t.begin(op, parent, name)
	f()
	o.end()
}

// layerStat is one row of the self-time table.
type layerStat struct {
	Layer       string  `json:"layer"`
	Spans       int     `json:"spans"`
	SelfMs      float64 `json:"self_ms"`
	SelfAllocMB float64 `json:"self_alloc_mb"`
	SelfAllocs  uint64  `json:"self_allocs"`
}

// selfTimes aggregates spans per layer. A span's self time is its duration
// minus the part of that interval its child spans cover; children of one
// span never overlap because every layer call is made from one goroutine.
// Self allocations are computed the same way.
func (t *tracer) selfTimes() []layerStat {
	childDur := map[int64]time.Duration{}
	childBytes := map[int64]uint64{}
	childObjs := map[int64]uint64{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent != 0 {
			childDur[s.Parent] += s.dur()
			childBytes[s.Parent] += s.AllocBytes
			childObjs[s.Parent] += s.AllocObjs
		}
	}
	rows := map[string]*layerStat{}
	for i := range t.spans {
		s := &t.spans[i]
		r := rows[s.layer()]
		if r == nil {
			r = &layerStat{Layer: s.layer()}
			rows[s.layer()] = r
		}
		r.Spans++
		r.SelfMs += ms(s.dur() - childDur[s.ID])
		// Another goroutine's allocations can land inside a child's window
		// but not the parent's; clamp rather than wrap.
		if b := childBytes[s.ID]; s.AllocBytes > b {
			r.SelfAllocMB += float64(s.AllocBytes-b) / (1 << 20)
		}
		if n := childObjs[s.ID]; s.AllocObjs > n {
			r.SelfAllocs += s.AllocObjs - n
		}
	}
	out := make([]layerStat, 0, len(rows))
	for _, k := range sortedKeys(rows) {
		out = append(out, *rows[k])
	}
	return out
}

// nameStat sums the spans of one name.
type nameStat struct {
	ms   float64
	n    int
	objs uint64
}

// byName sums duration (ms), count and allocated objects per span name.
func (t *tracer) byName() map[string]nameStat {
	out := map[string]nameStat{}
	for i := range t.spans {
		s := &t.spans[i]
		a := out[s.Name]
		a.ms += ms(s.dur())
		a.n++
		a.objs += s.AllocObjs
		out[s.Name] = a
	}
	return out
}

// printSelfTimes writes the per-layer self-time and allocation table.
func printSelfTimes(w io.Writer, workload string, rows []layerStat, overheadMs, overheadPct float64) {
	total := 0.0
	for _, r := range rows {
		total += r.SelfMs
	}
	fmt.Fprintf(w, "self time per layer (%s):\n", workload)
	fmt.Fprintf(w, "  %-8s %8s %12s %7s %14s %12s\n", "layer", "spans", "self_ms", "share", "self_alloc_mb", "self_allocs")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8s %8d %12.3f %6.1f%% %14.3f %12d\n",
			r.Layer, r.Spans, r.SelfMs, 100*ratio(r.SelfMs, total), r.SelfAllocMB, r.SelfAllocs)
	}
	fmt.Fprintf(w, "  tracing overhead: %.3f ms (%.2f%% of the untraced time)\n", overheadMs, overheadPct)
}

// writeSpans stores the spans as JSON lines, ordered by start time.
func (t *tracer) writeSpans(path string) error {
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].StartNs < t.spans[j].StartNs })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
