package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/httpd"
	"repro/internal/vectordb"

	rcacopilot "repro"
)

// daemon is the unified serving surface: handler CRUD, incident
// submission and streaming, feedback, retrieval and metrics over one
// System. Incident handling rides on System.HandleStream — submissions
// feed one input channel, a single pump goroutine consumes the output
// channel, records results and fans them out to SSE subscribers — so the
// daemon inherits the stream's backpressure and its lossless-drain
// contract: closing the input channel and waiting for the output to close
// is a complete graceful shutdown of the handling pipeline.
type daemon struct {
	sys     *rcacopilot.System
	limiter *httpd.TeamLimiter
	mux     *http.ServeMux
	started time.Time

	// drainMu orders submissions against shutdown: submit holds the read
	// side while it enqueues, drain takes the write side to flip closed
	// and close in — so in can never be written after it is closed.
	drainMu sync.RWMutex
	closed  bool
	in      chan *rcacopilot.Incident

	// done closes when the pump has consumed the whole stream: every
	// admitted incident is recorded and all subscribers are closed.
	done chan struct{}

	mu        sync.Mutex
	handled   map[string]*handledIncident
	subs      map[chan event]struct{}
	seq       uint64
	submitted uint64
	completed uint64
	failed    uint64
	dropped   uint64 // SSE events dropped on slow subscribers
	cost      time.Duration
}

// handledIncident is the daemon's record of one submission.
type handledIncident struct {
	incident    *rcacopilot.Incident
	outcome     *rcacopilot.Outcome
	err         error
	release     func() // limiter slot, freed when the result lands
	submittedAt time.Time
	doneAt      time.Time
	done        bool
}

// event is one SSE payload: the result of handling one incident.
type event struct {
	IncidentID  string `json:"incidentId"`
	Team        string `json:"team"`
	AlertType   string `json:"alertType"`
	Predicted   string `json:"predicted,omitempty"`
	Unseen      bool   `json:"unseen,omitempty"`
	Error       string `json:"error,omitempty"`
	VirtualCost string `json:"virtualCost,omitempty"`
}

var errDraining = errors.New("daemon is draining; not accepting incidents")

// newDaemon assembles the serving surface over sys and starts the stream
// pump. queue is the submission buffer depth between accepted POSTs and
// the stream workers.
func newDaemon(sys *rcacopilot.System, limits httpd.LimitConfig, queue int) *daemon {
	if queue <= 0 {
		queue = 64
	}
	d := &daemon{
		sys:     sys,
		limiter: httpd.NewTeamLimiter(limits),
		mux:     http.NewServeMux(),
		started: time.Now(),
		in:      make(chan *rcacopilot.Incident, queue),
		done:    make(chan struct{}),
		handled: make(map[string]*handledIncident),
		subs:    make(map[chan event]struct{}),
	}
	d.mux.HandleFunc("GET /{$}", d.index)
	d.mux.HandleFunc("POST /api/incidents", d.submit)
	d.mux.HandleFunc("GET /api/incidents", d.list)
	d.mux.HandleFunc("GET /api/incidents/stream", d.stream)
	d.mux.HandleFunc("GET /api/incidents/{id}", d.get)
	d.mux.HandleFunc("POST /api/feedback", d.feedback)
	d.mux.HandleFunc("GET /api/retrieve", d.retrieve)
	d.mux.HandleFunc("GET /metrics", d.metrics)
	// Handler CRUD — the construction service — shares the daemon mux.
	httpd.NewHandlerAPI(sys.Copilot().Registry()).Register(d.mux)

	// The stream runs on a background context on purpose: shutdown drains
	// by closing in, never by cancellation, so in-flight incidents always
	// complete and emit.
	go d.pump(sys.HandleStream(context.Background(), d.in))
	return d
}

// ServeHTTP implements http.Handler.
func (d *daemon) ServeHTTP(w http.ResponseWriter, r *http.Request) { d.mux.ServeHTTP(w, r) }

// pump is the single consumer of the handling stream: it records each
// result, frees its admission slot and broadcasts it, then — once the
// stream closes, meaning the input channel closed and every in-flight
// incident has been emitted — closes all subscribers and signals done.
func (d *daemon) pump(out <-chan rcacopilot.StreamResult) {
	for res := range out {
		d.record(res)
	}
	d.mu.Lock()
	for ch := range d.subs {
		close(ch)
	}
	d.subs = nil
	d.mu.Unlock()
	close(d.done)
}

func (d *daemon) record(res rcacopilot.StreamResult) {
	ev := event{
		IncidentID: res.Incident.ID,
		Team:       res.Incident.OwningTeam,
		AlertType:  string(res.Incident.Alert.Type),
	}
	if res.Err != nil {
		ev.Error = res.Err.Error()
	} else {
		ev.Predicted = string(res.Incident.Predicted)
		ev.Unseen = res.Outcome.Prediction.Unseen
		ev.VirtualCost = res.Outcome.Report.VirtualCost.String()
	}

	var release func()
	d.mu.Lock()
	if h := d.handled[res.Incident.ID]; h != nil {
		h.outcome, h.err, h.done, h.doneAt = res.Outcome, res.Err, true, time.Now()
		release = h.release
	}
	if res.Err != nil {
		d.failed++
	} else {
		d.completed++
		d.cost += res.Outcome.Report.VirtualCost
	}
	for ch := range d.subs {
		select {
		case ch <- ev:
		default:
			d.dropped++ // slow subscriber: drop rather than stall the pump
		}
	}
	d.mu.Unlock()
	if release != nil {
		release()
	}
}

// beginDrain stops admissions and closes the input channel (idempotent).
func (d *daemon) beginDrain() {
	d.drainMu.Lock()
	if !d.closed {
		d.closed = true
		close(d.in)
	}
	d.drainMu.Unlock()
}

// drain is the application half of graceful shutdown, run by httpd.Serve
// before the listener stops: refuse new incidents, let the stream finish
// every admitted one (bounded by ctx), then flush and close the feedback
// loop so no accepted verdict is lost. SSE handlers exit when the pump
// closes their channels, so the subsequent http.Server.Shutdown does not
// wait on long-lived streams.
func (d *daemon) drain(ctx context.Context) {
	d.beginDrain()
	select {
	case <-d.done:
	case <-ctx.Done():
	}
	_ = d.sys.Feedback().Close()
}

func (d *daemon) index(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<!DOCTYPE html>
<title>rcacopilotd</title>
<h1>rcacopilotd — RCACopilot serving daemon</h1>
<p>Incident submission, root-cause results, OCE feedback, history
retrieval and handler construction over one hardened HTTP surface.</p>
<ul>
<li><code>POST /api/incidents</code> — submit an incident (JSON), 202 + id</li>
<li><code>GET /api/incidents</code> — submission statuses</li>
<li><code>GET /api/incidents/{id}</code> — one result</li>
<li><code>GET /api/incidents/stream</code> — results as SSE (<code>?replay=1</code> for completed ones first)</li>
<li><code>POST /api/feedback</code> — OCE verdict: confirm / correct / reject</li>
<li><code>GET /api/retrieve?q=...&amp;k=5</code> — nearest historical incidents</li>
<li><code>GET /metrics</code> — serving, admission, retrieval, feedback and cost metrics</li>
<li><code>GET /api/handlers</code> &amp; friends — handler construction: query ops, versioned handlers</li>
</ul>`)
}

func (d *daemon) submit(w http.ResponseWriter, r *http.Request) {
	var inc rcacopilot.Incident
	if err := httpd.DecodeJSON(w, r, httpd.MaxBody, &inc); err != nil {
		httpd.WriteDecodeErr(w, err)
		return
	}
	d.mu.Lock()
	d.seq++
	seq := d.seq
	d.mu.Unlock()
	if inc.ID == "" {
		inc.ID = fmt.Sprintf("INC-API-%06d", seq)
	}
	if inc.OwningTeam == "" {
		inc.OwningTeam = "Transport"
	}
	if inc.CreatedAt.IsZero() {
		inc.CreatedAt = d.sys.Fleet().Clock().Now()
	}
	if err := inc.Validate(); err != nil {
		httpd.WriteErr(w, http.StatusUnprocessableEntity, err)
		return
	}

	release, err := d.limiter.Admit(inc.OwningTeam, inc.Severity)
	switch {
	case errors.Is(err, httpd.ErrRateLimited):
		w.Header().Set("Retry-After", strconv.Itoa(d.limiter.RetryAfter()))
		httpd.WriteErr(w, http.StatusTooManyRequests, err)
		return
	case err != nil:
		httpd.WriteErr(w, http.StatusServiceUnavailable, err)
		return
	}

	d.drainMu.RLock()
	if d.closed {
		d.drainMu.RUnlock()
		release()
		httpd.WriteErr(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	// Register before enqueueing so a fast completion always finds its
	// record (and its release func).
	d.mu.Lock()
	if _, dup := d.handled[inc.ID]; dup {
		d.mu.Unlock()
		d.drainMu.RUnlock()
		release()
		httpd.WriteErr(w, http.StatusConflict, fmt.Errorf("incident %s already submitted", inc.ID))
		return
	}
	d.handled[inc.ID] = &handledIncident{incident: &inc, release: release, submittedAt: time.Now()}
	d.submitted++
	d.mu.Unlock()

	select {
	case d.in <- &inc:
		d.drainMu.RUnlock()
		httpd.WriteJSON(w, http.StatusAccepted, map[string]any{"id": inc.ID})
	default:
		d.mu.Lock()
		delete(d.handled, inc.ID)
		d.submitted--
		d.mu.Unlock()
		d.drainMu.RUnlock()
		release()
		httpd.WriteErr(w, http.StatusServiceUnavailable,
			fmt.Errorf("submission queue full (%d pending)", cap(d.in)))
	}
}

// incidentStatus is the JSON view of one submission.
type incidentStatus struct {
	ID          string    `json:"id"`
	Team        string    `json:"team"`
	AlertType   string    `json:"alertType"`
	SubmittedAt time.Time `json:"submittedAt"`
	Done        bool      `json:"done"`
	Error       string    `json:"error,omitempty"`
	Predicted   string    `json:"predicted,omitempty"`
	Unseen      bool      `json:"unseen,omitempty"`
	Explanation string    `json:"explanation,omitempty"`
	Summary     string    `json:"summary,omitempty"`
	VirtualCost string    `json:"virtualCost,omitempty"`
}

func statusOf(h *handledIncident) incidentStatus {
	st := incidentStatus{
		ID:          h.incident.ID,
		Team:        h.incident.OwningTeam,
		AlertType:   string(h.incident.Alert.Type),
		SubmittedAt: h.submittedAt,
		Done:        h.done,
	}
	if !h.done {
		return st
	}
	if h.err != nil {
		st.Error = h.err.Error()
		return st
	}
	st.Predicted = string(h.incident.Predicted)
	st.Unseen = h.outcome.Prediction.Unseen
	st.Explanation = h.incident.Explanation
	st.Summary = h.outcome.Summary
	st.VirtualCost = h.outcome.Report.VirtualCost.String()
	return st
}

func (d *daemon) get(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	d.mu.Lock()
	h := d.handled[id]
	var st incidentStatus
	if h != nil {
		st = statusOf(h)
	}
	d.mu.Unlock()
	if h == nil {
		httpd.WriteErr(w, http.StatusNotFound, fmt.Errorf("incident %s not submitted here", id))
		return
	}
	httpd.WriteJSON(w, http.StatusOK, st)
}

func (d *daemon) list(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	out := make([]incidentStatus, 0, len(d.handled))
	for _, h := range d.handled {
		out = append(out, statusOf(h))
	}
	d.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].SubmittedAt.Equal(out[j].SubmittedAt) {
			return out[i].SubmittedAt.Before(out[j].SubmittedAt)
		}
		return out[i].ID < out[j].ID
	})
	httpd.WriteJSON(w, http.StatusOK, map[string]any{"incidents": out})
}

// stream serves handling results as server-sent events. ?replay=1 first
// replays results already recorded, so a subscriber that connects after
// submitting still sees its result; afterwards events arrive live until
// the client disconnects or the daemon drains (the pump closes the
// channel, ending the response — which is what lets http.Server.Shutdown
// finish).
func (d *daemon) stream(w http.ResponseWriter, r *http.Request) {
	replay := r.URL.Query().Get("replay") != ""

	d.mu.Lock()
	if d.subs == nil {
		d.mu.Unlock()
		httpd.WriteErr(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	var backlog []event
	if replay {
		for _, h := range d.handled {
			if h.done {
				backlog = append(backlog, eventOf(h))
			}
		}
		sort.Slice(backlog, func(i, j int) bool { return backlog[i].IncidentID < backlog[j].IncidentID })
	}
	ch := make(chan event, 32)
	d.subs[ch] = struct{}{}
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		if d.subs != nil {
			delete(d.subs, ch)
		}
		d.mu.Unlock()
	}()

	// A long-lived stream must outlive the server's WriteTimeout; clear
	// the deadline for this response only.
	rc := http.NewResponseController(w)
	_ = rc.SetWriteDeadline(time.Time{})
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush()

	send := func(ev event) bool {
		b, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", b); err != nil {
			return false
		}
		return rc.Flush() == nil
	}
	for _, ev := range backlog {
		if !send(ev) {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok || !send(ev) {
				return
			}
		}
	}
}

func eventOf(h *handledIncident) event {
	ev := event{
		IncidentID: h.incident.ID,
		Team:       h.incident.OwningTeam,
		AlertType:  string(h.incident.Alert.Type),
	}
	if h.err != nil {
		ev.Error = h.err.Error()
		return ev
	}
	ev.Predicted = string(h.incident.Predicted)
	ev.Unseen = h.outcome.Prediction.Unseen
	ev.VirtualCost = h.outcome.Report.VirtualCost.String()
	return ev
}

// feedbackRequest is the POST /api/feedback body.
type feedbackRequest struct {
	IncidentID string `json:"incidentId"`
	Verdict    string `json:"verdict"`
	Corrected  string `json:"corrected,omitempty"`
	Reviewer   string `json:"reviewer,omitempty"`
	Note       string `json:"note,omitempty"`
}

func (d *daemon) feedback(w http.ResponseWriter, r *http.Request) {
	var req feedbackRequest
	if err := httpd.DecodeJSON(w, r, httpd.MaxBody, &req); err != nil {
		httpd.WriteDecodeErr(w, err)
		return
	}
	d.mu.Lock()
	h := d.handled[req.IncidentID]
	d.mu.Unlock()
	switch {
	case h == nil:
		httpd.WriteErr(w, http.StatusNotFound, fmt.Errorf("incident %s not submitted here", req.IncidentID))
		return
	case !h.done:
		httpd.WriteErr(w, http.StatusConflict, fmt.Errorf("incident %s is still being handled", req.IncidentID))
		return
	case h.err != nil:
		httpd.WriteErr(w, http.StatusConflict, fmt.Errorf("incident %s failed handling; nothing to review", req.IncidentID))
		return
	}
	entry, err := d.sys.Feedback().Submit(h.incident,
		rcacopilot.Verdict(req.Verdict), rcacopilot.Category(req.Corrected),
		req.Reviewer, req.Note)
	if err != nil {
		httpd.WriteErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	httpd.WriteJSON(w, http.StatusOK, entry)
}

// retrievedJSON is one /api/retrieve hit, without the stored vector.
type retrievedJSON struct {
	ID         string    `json:"id"`
	Category   string    `json:"category"`
	Time       time.Time `json:"time"`
	Summary    string    `json:"summary,omitempty"`
	Distance   float64   `json:"distance"`
	Similarity float64   `json:"similarity"`
}

func (d *daemon) retrieve(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		httpd.WriteErr(w, http.StatusBadRequest, errors.New("missing query parameter q"))
		return
	}
	k, _, err := httpd.QueryPosInt(r, "k")
	if err != nil {
		httpd.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	diverse := r.URL.Query().Get("diverse") != ""
	var hits []rcacopilot.Retrieved
	if r.URL.Query().Has("team") {
		// Tenant-scoped retrieval: search only the team's namespace view.
		// An unknown team is an empty result set, not an error.
		hits, err = d.sys.RetrieveTeam(r.URL.Query().Get("team"), q, k, diverse)
	} else {
		hits, err = d.sys.Retrieve(q, k, diverse)
	}
	if err != nil {
		httpd.WriteErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	out := make([]retrievedJSON, len(hits))
	for i, h := range hits {
		out[i] = retrievedJSON{
			ID: h.Entry.ID, Category: string(h.Entry.Category), Time: h.Entry.Time,
			Summary: h.Entry.Summary, Distance: h.Distance, Similarity: h.Similarity,
		}
	}
	httpd.WriteJSON(w, http.StatusOK, map[string]any{"query": q, "results": out})
}

// retryItemJSON is one retry-queue entry in /metrics.
type retryItemJSON struct {
	IncidentID string     `json:"incidentId"`
	Reviewer   string     `json:"reviewer,omitempty"`
	Attempts   int        `json:"attempts"`
	NextDue    *time.Time `json:"nextDue,omitempty"`
	Exhausted  bool       `json:"exhausted,omitempty"`
	Error      string     `json:"error,omitempty"`
}

func (d *daemon) metrics(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	incidents := map[string]any{
		"submitted":        d.submitted,
		"completed":        d.completed,
		"failed":           d.failed,
		"pending":          d.submitted - d.completed - d.failed,
		"droppedSSEEvents": d.dropped,
		"handlerCost":      d.cost.String(),
	}
	d.mu.Unlock()

	admission := map[string]any{
		"inflight":    d.limiter.Inflight(),
		"maxInflight": d.limiter.MaxInflightBound(),
		"queued":      d.limiter.QueueLen(),
		"teams":       d.limiter.Stats(),
	}

	retrieval := map[string]any{"entries": d.sys.Copilot().Index().Len()}
	if b := d.sys.Copilot().Batcher(); b != nil {
		st := b.Stats()
		retrieval["batching"] = map[string]any{
			"batches":       st.Batches,
			"queries":       st.Queries,
			"meanOccupancy": st.MeanOccupancy,
			"flushIdle":     st.FlushIdle,
			"flushSize":     st.FlushSize,
			"flushTimer":    st.FlushTimer,
		}
	}
	if sh, ok := vectordb.AsSharded(d.sys.Copilot().Index()); ok {
		retrieval["shards"] = sh.NumShards()
		retrieval["probes"] = sh.Probes()
		retrieval["rebalancing"] = sh.Rebalancing()
		if sh.QuantizedEnabled() {
			retrieval["quantized"] = map[string]any{
				"enabled":   true,
				"overfetch": sh.Overfetch(),
				"scans":     sh.QuantizedScans(),
				"rescales":  sh.Rescales(),
			}
		}
		if t := sh.AdaptiveTuner(); t != nil {
			mean, n := t.ObservedRecall()
			retrieval["adaptive"] = map[string]any{
				"observedRecall": mean,
				"recallSamples":  n,
				"shadows":        t.Shadows(),
				"retrains":       t.Retrains(),
				"paused":         t.Paused(),
			}
		}
		if nss := sh.NamespaceStats(); len(nss) > 1 {
			tenants := make([]map[string]any, len(nss))
			for i, ns := range nss {
				name := ns.Namespace
				if name == "" {
					name = "(default)"
				}
				tenants[i] = map[string]any{
					"namespace":      name,
					"entries":        ns.Entries,
					"probes":         ns.Probes,
					"overfetch":      ns.Overfetch,
					"observedRecall": ns.ObservedRecall,
					"recallSamples":  ns.RecallSamples,
					"shadows":        ns.Shadows,
					"retrains":       ns.Retrains,
					"quantScans":     ns.QuantScans,
				}
			}
			retrieval["tenants"] = tenants
		}
	}

	loop := d.sys.Feedback()
	stats := loop.ComputeStats()
	schedule := loop.RetrySchedule()
	retry := make([]retryItemJSON, len(schedule))
	for i, it := range schedule {
		rj := retryItemJSON{
			IncidentID: it.IncidentID, Reviewer: it.Reviewer,
			Attempts: it.Attempts, Exhausted: it.Exhausted,
		}
		if !it.NextDue.IsZero() {
			due := it.NextDue
			rj.NextDue = &due
		}
		if it.Err != nil {
			rj.Error = it.Err.Error()
		}
		retry[i] = rj
	}
	feedback := map[string]any{
		"reviewed":     stats.Total,
		"confirmed":    stats.Confirmed,
		"corrected":    stats.Corrected,
		"rejected":     stats.Rejected,
		"accuracy":     stats.Accuracy(),
		"retryBacklog": loop.RetryBacklog(),
		"retryQueue":   retry,
	}

	toStrings := func(m map[string]time.Duration) map[string]string {
		out := make(map[string]string, len(m))
		for k, v := range m {
			out[k] = v.String()
		}
		return out
	}
	telemetry := d.sys.Fleet().Meter().ByKey()
	cost := map[string]any{
		"llm":       toStrings(d.sys.Copilot().Meter().ByKey()),
		"telemetry": toStrings(telemetry),
	}
	// Tenant-attributed runs charge "team/site" keys; roll each team's
	// telemetry share up into a per-tenant cost gauge.
	perTenant := make(map[string]time.Duration)
	for key, v := range telemetry {
		if team, _, ok := strings.Cut(key, "/"); ok {
			perTenant[team] += v
		}
	}
	if len(perTenant) > 0 {
		cost["tenants"] = toStrings(perTenant)
	}

	payload := map[string]any{
		"uptime":    time.Since(d.started).Round(time.Millisecond).String(),
		"incidents": incidents,
		"admission": admission,
		"retrieval": retrieval,
		"feedback":  feedback,
		"cost":      cost,
	}
	if dur := d.sys.Copilot().Durable(); dur != nil {
		// WAL-backed deployment (-wal-dir): surface the durability gauges —
		// replayedRecords > 0 after a reboot is the observable proof that
		// recovery, not re-ingest, produced the serving corpus.
		st := dur.Stats()
		durability := map[string]any{
			"appendedRecords": st.AppendedRecords,
			"syncedRecords":   st.SyncedRecords,
			"replayedRecords": st.ReplayedRecords,
			"logBytes":        st.LogBytes,
		}
		if !st.LastCompaction.IsZero() {
			durability["lastCompaction"] = st.LastCompaction.UTC()
		}
		if st.Err != "" {
			durability["error"] = st.Err
		}
		payload["durability"] = durability
	}
	httpd.WriteJSON(w, http.StatusOK, payload)
}
