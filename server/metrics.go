package server

// metrics.go renders the control plane's counters in the Prometheus text
// exposition format (version 0.0.4), stdlib-only: the GET /metrics
// handler calls Manager.WriteMetrics, which snapshots every tenant under
// the manager lock and writes one sample per (metric, label set).

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
)

// metricsSnapshot is one tenant's counters, copied under m.mu so a
// scrape observes a consistent point in time.
type metricsSnapshot struct {
	name      string
	queued    int
	running   int
	submitted int64
	done      int64
	failed    int64
	cancelled int64
	expired   int64
	trials    int64
	evictions int64
	resident  int64
	rejected  map[string]int64
}

// WriteMetrics writes the manager's control-plane metrics to w in the
// Prometheus text exposition format. All series are labelled by tenant;
// the global gauges (queue depth, running jobs, resident bytes) are
// additionally exported unlabelled so a dashboard needs no sum() to see
// server totals. The graph cache's series are server-wide and
// unlabelled. Counters are cumulative since the manager started.
func (m *Manager) WriteMetrics(w io.Writer) error {
	m.mu.Lock()
	snaps := make([]metricsSnapshot, 0, len(m.tenantOrder))
	for _, name := range m.tenantOrder {
		t := m.tenants[name]
		s := metricsSnapshot{
			name:      name,
			queued:    len(t.queue),
			running:   t.running,
			submitted: t.submitted,
			done:      t.done,
			failed:    t.failed,
			cancelled: t.cancelled,
			expired:   t.expired,
			trials:    t.trials.Load(),
			evictions: t.evictions.Load(),
			resident:  t.resident.Load(),
		}
		if len(t.rejected) > 0 {
			s.rejected = make(map[string]int64, len(t.rejected))
			for k, v := range t.rejected {
				s.rejected[k] = v
			}
		}
		snaps = append(snaps, s)
	}
	queued, running := m.queued, m.running
	m.mu.Unlock()
	resident := m.resident.Load()
	graphs := m.graphs.stats()

	bw := bufio.NewWriter(w)
	header := func(name, help, typ string) {
		bw.WriteString("# HELP " + name + " " + help + "\n")
		bw.WriteString("# TYPE " + name + " " + typ + "\n")
	}
	sample := func(name, labels string, v int64) {
		bw.WriteString(name)
		if labels != "" {
			bw.WriteString("{" + labels + "}")
		}
		bw.WriteString(" " + strconv.FormatInt(v, 10) + "\n")
	}
	tl := func(s metricsSnapshot) string {
		return `tenant="` + escapeLabel(s.name) + `"`
	}

	header("dispersion_queue_depth", "Jobs waiting in all tenant queues.", "gauge")
	sample("dispersion_queue_depth", "", int64(queued))
	header("dispersion_jobs_running", "Jobs currently executing.", "gauge")
	sample("dispersion_jobs_running", "", int64(running))
	header("dispersion_resident_bytes_total", "Estimated bytes of buffered results across all tenants.", "gauge")
	sample("dispersion_resident_bytes_total", "", resident)
	header("dispersion_graph_cache_hits_total", "Jobs whose graph was cached or already being built.", "counter")
	sample("dispersion_graph_cache_hits_total", "", graphs.hits)
	header("dispersion_graph_cache_misses_total", "Graph builds, one per job whose graph was neither cached nor being built.", "counter")
	sample("dispersion_graph_cache_misses_total", "", graphs.misses)
	header("dispersion_graph_cache_evictions_total", "Graphs evicted from the cache to keep it within MaxGraphBytes.", "counter")
	sample("dispersion_graph_cache_evictions_total", "", graphs.evictions)
	header("dispersion_graph_cache_bytes", "Modeled resident bytes of the cached graphs.", "gauge")
	sample("dispersion_graph_cache_bytes", "", graphs.bytes)
	header("dispersion_graph_cache_entries", "Graphs in the cache.", "gauge")
	sample("dispersion_graph_cache_entries", "", graphs.entries)

	header("dispersion_tenant_jobs_queued", "Jobs waiting in the tenant's queue.", "gauge")
	for _, s := range snaps {
		sample("dispersion_tenant_jobs_queued", tl(s), int64(s.queued))
	}
	header("dispersion_tenant_jobs_running", "Tenant jobs currently executing.", "gauge")
	for _, s := range snaps {
		sample("dispersion_tenant_jobs_running", tl(s), int64(s.running))
	}
	header("dispersion_tenant_resident_bytes", "Estimated bytes of the tenant's buffered results.", "gauge")
	for _, s := range snaps {
		sample("dispersion_tenant_resident_bytes", tl(s), s.resident)
	}
	header("dispersion_jobs_submitted_total", "Jobs admitted, by tenant.", "counter")
	for _, s := range snaps {
		sample("dispersion_jobs_submitted_total", tl(s), s.submitted)
	}
	header("dispersion_jobs_total", "Jobs that reached a terminal state, by tenant and state.", "counter")
	for _, s := range snaps {
		sample("dispersion_jobs_total", tl(s)+`,state="done"`, s.done)
		sample("dispersion_jobs_total", tl(s)+`,state="failed"`, s.failed)
		sample("dispersion_jobs_total", tl(s)+`,state="cancelled"`, s.cancelled)
	}
	header("dispersion_deadline_expired_total", "Queued jobs failed by their deadline before starting, by tenant.", "counter")
	for _, s := range snaps {
		sample("dispersion_deadline_expired_total", tl(s), s.expired)
	}
	header("dispersion_trials_completed_total", "Completed trials, by tenant. rate() of this is trials/sec.", "counter")
	for _, s := range snaps {
		sample("dispersion_trials_completed_total", tl(s), s.trials)
	}
	header("dispersion_evictions_total", "Result buffers dropped by the EvictConsumed policy, by tenant.", "counter")
	for _, s := range snaps {
		sample("dispersion_evictions_total", tl(s), s.evictions)
	}
	header("dispersion_admission_rejected_total", "Submissions rejected by admission control, by tenant and reason.", "counter")
	for _, s := range snaps {
		reasons := make([]string, 0, len(s.rejected))
		for r := range s.rejected {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		for _, r := range reasons {
			sample("dispersion_admission_rejected_total",
				tl(s)+`,reason="`+escapeLabel(r)+`"`, s.rejected[r])
		}
	}
	return bw.Flush()
}

// escapeLabel escapes a Prometheus label value: backslash, double quote
// and newline, per the text exposition format.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
