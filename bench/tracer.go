package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

type spanName uint8

// Span names: the facade's first, then the layers under it.
const (
	spFacadeDo spanName = iota
	spFacadePublish
	spFacadeUnpublish
	spFacadePage
	spFacadeJoin // + churn kind
	spFacadeLeave
	spFacadeFail
	spNamingHash
	spNamingRegion
	spCoreLookup
	spCoreRange
	spFissScan
	spFissPublish
	spFissUnpublish
	spFissJoin // + churn kind
	spFissLeave
	spFissFail
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"facade.do", "facade.publish", "facade.unpublish", "facade.page",
	"facade.join", "facade.leave", "facade.fail",
	"naming.hash", "naming.region", "core.lookup", "core.range",
	"fissione.scan", "fissione.publish", "fissione.unpublish",
	"fissione.join", "fissione.leave", "fissione.fail",
}

// span is one timed call into a layer. Spans of one operation share op;
// parent is the span whose call this one is (a shadow of) a part of.
type span struct {
	id, parent, op int32
	name           spanName
	start, end     int64 // ns since the pass began
}

// tracer keeps spans in a preallocated slice; they are written out after
// the pass.
type tracer struct {
	t0    time.Time
	spans []span
}

// timed runs f inside a span and returns the span's id and duration.
func (t *tracer) timed(name spanName, parent int32, op int, f func()) (int32, time.Duration) {
	start := time.Since(t.t0)
	f()
	end := time.Since(t.t0)
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, op: int32(op), name: name, start: int64(start), end: int64(end)})
	return id, end - start
}

// write emits the spans as Chrome trace-event JSON, the facade's on one
// track and the twin's shadows on another.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"traceEvents":[`+
		`{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"facade (live network)"}},`+
		`{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"layers under it (twin)"}}`)
	for _, s := range t.spans {
		tid := 2
		if s.name <= spFacadeFail {
			tid = 1
		}
		fmt.Fprintf(w, ",\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"op":%d}}`,
			spanNames[s.name], tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, s.parent, s.op)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
