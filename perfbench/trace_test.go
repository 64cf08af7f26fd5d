package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestTraceSanity runs a short traced production run and checks the span
// tree: children nest inside their parents, self times are never negative,
// the per-layer counts match the requests the generator sent, and the span
// file round-trips.
func TestTraceSanity(t *testing.T) {
	w, err := buildWorkload("small-batches", 5, testSeconds)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	res, err := runProduction(w, t.TempDir(), 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := validate(w, res); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	byID := make(map[int64]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %+v: parent missing", s)
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %s [%d,%d] outside its parent %s [%d,%d]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		if s.Req != p.Req {
			t.Errorf("span %s in request %d, parent %s in %d", s.Name, s.Req, p.Name, p.Req)
		}
	}
	st := summarize(spans)
	for name, ss := range st {
		if ss.self < 0 {
			t.Errorf("%s: negative self time %v", name, ss.self)
		}
	}

	var ingests, writes int
	for _, rq := range w.writerRequests() {
		writes++
		if rq.kind == kindIngest {
			ingests++
		}
	}
	reads := len(res.reads.latency[kindRead]) + 1 // the final read
	for _, c := range []struct {
		name string
		want int
	}{
		{"server.ingest", ingests},
		{"core.step", ingests},
		{"server.read", reads},
		{"core.candidates", reads},
		{"wal.sync", writes},
	} {
		got := 0
		for _, s := range spans {
			// Opening and closing the engine sync the WAL outside any
			// request; only syncs inside requests are counted.
			if s.Name == c.name && s.Req != 0 {
				got++
			}
		}
		if got != c.want {
			t.Errorf("%s: %d spans, want %d", c.name, got, c.want)
		}
	}
	for _, s := range spans {
		if s.Name == "join.apply" && byID[s.Parent].Name != "core.step" {
			t.Errorf("join.apply under %q, want core.step", byID[s.Parent].Name)
		}
	}

	path := filepath.Join(t.TempDir(), "spans.json")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	back, err := readSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, spans) {
		t.Fatal("span file does not round-trip")
	}
}

func readSpans(path string) ([]Span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spans []Span
	if err := json.Unmarshal(data, &spans); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spans, nil
}
