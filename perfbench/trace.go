package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a module. Parent is the id of the span that caused it (0 for a root).
// Attr carries the span's subject: a configuration name, or for HTTP spans
// the server host and request path.
type span struct {
	ID, Parent int
	Name       string
	Attr       string
	Start, End time.Duration // since the tracer's epoch, monotonic
	Status     int           // HTTP status; -1 for a transport error
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, which is how untraced passes run the same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, attr string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Attr: attr, Start: now})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) { t.finish(id, 0, "") }

// finish closes span id with an HTTP status (0 for other spans) and
// replaces its attribute when attr is non-empty.
func (t *tracer) finish(id, status int, attr string) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End, s.Status = now, status
	if attr != "" {
		s.Attr = attr
	}
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// wallAt converts a span offset to wall-clock time, for comparison with
// the timestamps the server reports.
func (t *tracer) wallAt(d time.Duration) time.Time { return t.epoch.Round(0).Add(d) }

// spanStat is the per-name total of a span set.
type spanStat struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_ms"`
	Self  float64 `json:"self_ms"`
}

// selfTimes sums each span name's duration and self time: a span's
// duration minus the time its children cover.
func selfTimes(spans []span) []spanStat {
	child := make(map[int]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*spanStat{}
	for _, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			by[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.Total += ms(d)
		st.Self += ms(d - child[s.ID])
	}
	out := make([]spanStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeSpans writes one tab-separated line per span.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "id\tparent\tname\tattr\tstart_ns\tdur_ns\tstatus")
	for _, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%s\t%d\t%d\t%d\n", s.ID, s.Parent, s.Name, s.Attr,
			s.Start.Nanoseconds(), (s.End - s.Start).Nanoseconds(), s.Status)
	}
	return bw.Flush()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opKey is the context key that ties an HTTP request to the service op
// span that issued it.
type opKey struct{}

// tracingTransport is the span-recording http.RoundTripper installed as
// Coordinator.Client's transport on traced passes. A span covers a request
// until its response headers arrive; for result streams it also covers
// the body read to EOF.
type tracingTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, _ := req.Context().Value(opKey{}).(int)
	name := httpSpanName(req.Method, req.URL.Path)
	id := t.tr.begin(name, parent, req.URL.Host+req.URL.Path)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.finish(id, -1, "")
		return nil, err
	}
	attr := ""
	if loc := resp.Header.Get("Location"); loc != "" {
		attr = req.URL.Host + loc
	}
	if name != "http.results" {
		t.tr.finish(id, resp.StatusCode, attr)
		return resp, nil
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { t.tr.finish(id, resp.StatusCode, attr) }}
	return resp, nil
}

// spanBody closes its span at EOF or Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.end)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}

// httpSpanName names a job-API request by its route.
func httpSpanName(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/v1/jobs":
		return "http.submit"
	case method == http.MethodDelete:
		return "http.cancel"
	case strings.HasSuffix(path, "/summary"):
		return "http.summary"
	case strings.HasSuffix(path, "/results"):
		return "http.results"
	case strings.HasPrefix(path, "/v1/jobs/"):
		return "http.status"
	}
	return "http.other"
}

// jobKey returns the "host/v1/jobs/<id>" prefix of an HTTP span attribute,
// or "" when the attribute names no job.
func jobKey(attr string) string {
	i := strings.Index(attr, "/v1/jobs/")
	if i < 0 {
		return ""
	}
	rest := attr[i+len("/v1/jobs/"):]
	if j := strings.IndexByte(rest, '/'); j >= 0 {
		rest = rest[:j]
	}
	if rest == "" {
		return ""
	}
	return attr[:i] + "/v1/jobs/" + rest
}
