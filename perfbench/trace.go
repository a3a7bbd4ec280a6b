package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"
)

// spanName identifies a span kind. Names are "<layer>.<what>"; the
// layer prefix is the repository module the span's call enters, so
// self time rolls up under the same names the per-layer metrics use.
type spanName int

const (
	spanOp spanName = iota
	spanCharacterize
	spanRunOnProfiles
	spanReplay
	spanSampleStep
	spanAdaptStep
	spanPinnedStep
	spanOracle
	spanDecideNaive
	spanDecideHardened
	spanFaultRead
	spanSelect
	spanHandler
	spanReload
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spanOp:             "bench.op",
	spanCharacterize:   "core.characterize",
	spanRunOnProfiles:  "eval.run_on_profiles",
	spanReplay:         "rts.replay",
	spanSampleStep:     "rts.sample_step",
	spanAdaptStep:      "rts.adapt_step",
	spanPinnedStep:     "rts.pinned_step",
	spanOracle:         "sched.oracle",
	spanDecideNaive:    "sched.decide_naive",
	spanDecideHardened: "sched.decide_hardened",
	spanFaultRead:      "fault.read",
	spanSelect:         "query.select",
	spanHandler:        "query.handler",
	spanReload:         "query.reload",
}

func (n spanName) layer() string {
	s := spanNames[n]
	return s[:strings.IndexByte(s, '.')]
}

// Bounds on what one track keeps verbatim. Every span still feeds the
// per-name counts, totals and self times; past these bounds only the
// raw records and duration samples stop growing, so a traced serve run
// of millions of requests stays within a few tens of MB.
const (
	maxSpansPerTrack   = 200_000
	maxSamplesPerTrack = 1 << 20
)

// tracer owns the clock epoch and the op-ID sequence shared by all
// tracks of one traced phase.
type tracer struct {
	epoch  time.Time
	nextOp atomic.Int64
	tracks []*track
}

func newTracer(callers int) *tracer {
	tr := &tracer{epoch: time.Now()}
	for i := 0; i < callers; i++ {
		tr.tracks = append(tr.tracks, &track{tr: tr, idx: int64(i)}) //lint:ignore walltime span times are measurements, written only to the span file
	}
	return tr
}

// spanRec is one finished span as written out.
type spanRec struct {
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type openSpan struct {
	id, parent int64
	start      int64
	childNs    int64
}

// track records the spans of one caller goroutine; it is never shared,
// so recording takes no lock. A nil *track records nothing, which is
// how untraced phases run the same code.
type track struct {
	tr    *tracer
	idx   int64
	seq   int64
	op    int64
	stack []openSpan

	spans   []spanRec
	dropped int64
	totalNs [numSpanNames]int64
	selfNs  [numSpanNames]int64
	samples [numSpanNames][]float32 // durations in µs
}

func (t *track) now() int64 { return time.Since(t.tr.epoch).Nanoseconds() }

// beginOp starts a new operation: the next span begun is its root.
func (t *track) beginOp() {
	if t == nil {
		return
	}
	t.op = t.tr.nextOp.Add(1)
}

// begin opens a span; its name is given at end, once the call's result
// (for instance an rts step's phase) is known.
func (t *track) begin() {
	if t == nil {
		return
	}
	t.seq++
	parent := int64(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].id
	}
	t.stack = append(t.stack, openSpan{id: t.idx<<40 | t.seq, parent: parent, start: t.now()})
}

// end closes the innermost open span under the given name.
func (t *track) end(name spanName) {
	if t == nil {
		return
	}
	endNs := t.now()
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	dur := endNs - s.start
	if n > 0 {
		t.stack[n-1].childNs += dur
	}
	t.totalNs[name] += dur
	t.selfNs[name] += dur - s.childNs
	if len(t.samples[name]) < maxSamplesPerTrack {
		t.samples[name] = append(t.samples[name], float32(float64(dur)/1e3))
	}
	if len(t.spans) < maxSpansPerTrack {
		t.spans = append(t.spans, spanRec{Op: t.op, ID: s.id, Parent: s.parent, Name: spanNames[name], Start: s.start, End: endNs})
	} else {
		t.dropped++
	}
}

// spanStats is the merge of every track's per-name aggregates.
type spanStats struct {
	totalNs [numSpanNames]int64
	selfNs  [numSpanNames]int64
	samples [numSpanNames][]float32
	spans   int64
	dropped int64
}

func (tr *tracer) stats() *spanStats {
	st := &spanStats{}
	for _, t := range tr.tracks {
		for n := spanName(0); n < numSpanNames; n++ {
			st.totalNs[n] += t.totalNs[n]
			st.selfNs[n] += t.selfNs[n]
			st.samples[n] = append(st.samples[n], t.samples[n]...)
		}
		st.spans += int64(len(t.spans))
		st.dropped += t.dropped
	}
	return st
}

// layerSelfNs sums self time per layer prefix.
func (st *spanStats) layerSelfNs() map[string]int64 {
	out := map[string]int64{}
	for n := spanName(0); n < numSpanNames; n++ {
		out[n.layer()] += st.selfNs[n]
	}
	return out
}

// writeSpans writes every kept span as gzip-compressed JSON lines,
// preceded by one header line stating how many were kept and dropped.
func (tr *tracer) writeSpans(path string, header map[string]any) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header); err != nil {
		return err
	}
	for _, t := range tr.tracks {
		for i := range t.spans {
			if err := enc.Encode(&t.spans[i]); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("flush spans: %w", err)
	}
	return zw.Close()
}
