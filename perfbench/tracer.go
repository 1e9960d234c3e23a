package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one recorded interval around a call into a layer. Parent is
// the id of the span that caused it (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// StartNS and EndNS are nanoseconds since the tracer was created.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends.
// A nil tracer records nothing, and a tracer switched off with on=false
// records nothing either, so untraced passes of a traced run pay only a
// branch.
type tracer struct {
	t0    time.Time
	on    bool
	spans []span
	// totals sums span durations by name, so reconciliation does not
	// rescan the span list.
	totals map[string]time.Duration
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), on: true, totals: map[string]time.Duration{}}
}

// begin opens a span and returns its id, or 0 when not recording.
func (t *tracer) begin(name string, parent int) int {
	if t == nil || !t.on {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartNS: time.Since(t.t0).Nanoseconds(),
	})
	return len(t.spans)
}

// end closes span id (a no-op for id 0).
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.EndNS = time.Since(t.t0).Nanoseconds()
	t.totals[s.Name] += time.Duration(s.EndNS - s.StartNS)
}

// total returns the summed duration of every span named name.
func (t *tracer) total(name string) time.Duration {
	if t == nil {
		return 0
	}
	return t.totals[name]
}

// setOn switches recording; it returns whether recording was on before.
func (t *tracer) setOn(on bool) bool {
	if t == nil {
		return false
	}
	was := t.on
	t.on = on
	return was
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			//nanolint:ignore droppederr the encode error is the one reported
			_ = f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		//nanolint:ignore droppederr the flush error is the one reported
		_ = f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// reconciliation splits a parent span's time into its child layers and
// the remainder no child covers, the named residual.
type reconciliation struct {
	Parent   string             `json:"parent"`
	ParentS  float64            `json:"parent_s"`
	Children map[string]float64 `json:"children_s"`
	Residual string             `json:"residual"`
	// ResidualS is negative when the child layers, timed on their own
	// with a span per call, take longer than they do inside the parent;
	// it is reported as measured.
	ResidualS float64 `json:"residual_s"`
}

// reconcile builds a reconciliation from durations already scaled to
// the same amount of work.
func reconcile(parent string, parentD time.Duration, residual string, children map[string]time.Duration) reconciliation {
	r := reconciliation{
		Parent: parent, ParentS: parentD.Seconds(),
		Children: map[string]float64{}, Residual: residual,
	}
	rest := parentD
	for name, d := range children {
		r.Children[name] = d.Seconds()
		rest -= d
	}
	r.ResidualS = rest.Seconds()
	return r
}

// setupReconcile splits the mean set-up into its capture, compile and
// build spans and the residual, filling the set-up layer metrics.
func setupReconcile(tr *tracer, reps int, L map[string]float64) reconciliation {
	per := func(name string) time.Duration { return tr.total(name) / time.Duration(reps) }
	rec := reconcile("setup", per("setup"), "setup.residual", map[string]time.Duration{
		"workload.capture": per("workload.capture"),
		"core.compile":     per("core.compile"),
		"core.new":         per("core.new"),
	})
	L["workload.capture_s"] = per("workload.capture").Seconds()
	L["core.compile_s"] = per("core.compile").Seconds()
	L["setup.residual_s"] = rec.ResidualS
	return rec
}
