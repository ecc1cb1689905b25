package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/httpd"

	rcacopilot "repro"
)

// The corpus and trained system are expensive; build one per test binary
// and give each test its own daemon over a fresh System sharing the
// corpus fleet-free incidents.
var (
	corpusOnce sync.Once
	corpus     *rcacopilot.Corpus
	corpusErr  error
)

func sharedCorpus(t *testing.T) *rcacopilot.Corpus {
	t.Helper()
	corpusOnce.Do(func() {
		corpus, corpusErr = rcacopilot.GenerateCorpusSpec(rcacopilot.CorpusSpec{
			Seed: 1, Start: time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC),
			Days: 60, RecurrenceWithin20: 0.9, Team: "Transport",
		})
	})
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return corpus
}

func newTestDaemon(t *testing.T, limits httpd.LimitConfig, queue int) (*daemon, *rcacopilot.System) {
	t.Helper()
	c := sharedCorpus(t)
	sys, err := rcacopilot.NewSystem(c.Fleet, rcacopilot.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := 40
	if n > len(c.Incidents) {
		n = len(c.Incidents)
	}
	if err := sys.TrainEmbedding(c.Incidents[:n]); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddHistory(c.Incidents[:n]); err != nil {
		t.Fatal(err)
	}
	d := newDaemon(sys, limits, queue)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		d.drain(ctx)
	})
	return d, sys
}

// liveIncident builds a fresh submittable incident from a corpus incident
// beyond the ingested history: same alert shape, no pipeline enrichment.
func liveIncident(t *testing.T, id string) *rcacopilot.Incident {
	t.Helper()
	c := sharedCorpus(t)
	if len(c.Incidents) < 45 {
		t.Fatalf("corpus too small: %d incidents", len(c.Incidents))
	}
	src := c.Incidents[44]
	return &rcacopilot.Incident{
		ID: id, Title: src.Title, OwningTeam: src.OwningTeam,
		Severity: src.Severity, Alert: src.Alert, CreatedAt: src.CreatedAt,
	}
}

func postJSON(t *testing.T, srv http.Handler, path string, v any) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func getJSON(t *testing.T, srv http.Handler, path string, v any) int {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if v != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
			t.Fatalf("GET %s: %v (%s)", path, err, rec.Body.String())
		}
	}
	return rec.Code
}

func waitDone(t *testing.T, d *daemon, id string) incidentStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st incidentStatus
		code := getJSON(t, d, "/api/incidents/"+id, &st)
		if code != http.StatusOK {
			t.Fatalf("GET incident %s: status %d", id, code)
		}
		if st.Done {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("incident %s never completed", id)
	return incidentStatus{}
}

// TestDaemonEndToEnd drives the full serving loop over a real server:
// submit → SSE result → status → feedback verdict → retrieval → metrics.
func TestDaemonEndToEnd(t *testing.T) {
	d, sys := newTestDaemon(t, httpd.LimitConfig{Rate: 1000, Burst: 1000}, 16)
	ts := httptest.NewServer(d)
	defer ts.Close()

	// Subscribe to the SSE stream before submitting, so the live event
	// cannot be missed.
	stream, err := http.Get(ts.URL + "/api/incidents/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	events := make(chan event, 4)
	go func() {
		sc := bufio.NewScanner(stream.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev event
			if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev) == nil {
				events <- ev
			}
		}
	}()

	inc := liveIncident(t, "INC-E2E-1")
	resp, err := http.Post(ts.URL+"/api/incidents", "application/json", bytes.NewReader(mustJSON(t, inc)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	select {
	case ev := <-events:
		if ev.IncidentID != "INC-E2E-1" {
			t.Fatalf("SSE event for %q", ev.IncidentID)
		}
		if ev.Error != "" {
			t.Fatalf("handling failed: %s", ev.Error)
		}
		if ev.Predicted == "" {
			t.Fatal("SSE event carries no prediction")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("no SSE event")
	}

	st := waitDone(t, d, "INC-E2E-1")
	if st.Predicted == "" || st.Summary == "" {
		t.Fatalf("status incomplete: %+v", st)
	}

	// Feedback: confirm the prediction; the loop must record it.
	rec := postJSON(t, d, "/api/feedback", feedbackRequest{
		IncidentID: "INC-E2E-1", Verdict: "confirm", Reviewer: "oce@example.test",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("feedback status %d: %s", rec.Code, rec.Body.String())
	}
	if err := sys.Feedback().Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if s := sys.Feedback().ComputeStats(); s.Total != 1 || s.Confirmed != 1 {
		t.Fatalf("feedback stats %+v", s)
	}

	// Retrieval over the ingested history.
	var ret struct {
		Results []retrievedJSON `json:"results"`
	}
	if code := getJSON(t, d, "/api/retrieve?q="+url.QueryEscape(st.Summary[:20])+"&k=3", &ret); code != http.StatusOK {
		t.Fatalf("retrieve status %d", code)
	}
	if len(ret.Results) == 0 || ret.Results[0].ID == "" {
		t.Fatalf("retrieve results %+v", ret.Results)
	}

	// Metrics reflect the work done.
	var m struct {
		Incidents struct {
			Submitted uint64 `json:"submitted"`
			Completed uint64 `json:"completed"`
			Failed    uint64 `json:"failed"`
		} `json:"incidents"`
		Feedback struct {
			Reviewed     int `json:"reviewed"`
			RetryBacklog int `json:"retryBacklog"`
		} `json:"feedback"`
		Retrieval struct {
			Entries int `json:"entries"`
		} `json:"retrieval"`
	}
	if code := getJSON(t, d, "/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if m.Incidents.Submitted != 1 || m.Incidents.Completed != 1 || m.Incidents.Failed != 0 {
		t.Fatalf("incident metrics %+v", m.Incidents)
	}
	if m.Feedback.Reviewed != 1 {
		t.Fatalf("feedback metrics %+v", m.Feedback)
	}
	// 40 ingested + 1 learned back from the confirmed verdict.
	if m.Retrieval.Entries != 41 {
		t.Fatalf("retrieval entries = %d, want 41", m.Retrieval.Entries)
	}
}

// TestDaemonDrain verifies the lossless-drain contract: an in-flight
// incident completes and is recorded, and a late submission is refused
// with 503.
func TestDaemonDrain(t *testing.T) {
	d, _ := newTestDaemon(t, httpd.LimitConfig{Rate: 1000, Burst: 1000}, 16)

	rec := postJSON(t, d, "/api/incidents", liveIncident(t, "INC-DRAIN-1"))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", rec.Code, rec.Body.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d.drain(ctx)

	var st incidentStatus
	if code := getJSON(t, d, "/api/incidents/INC-DRAIN-1", &st); code != http.StatusOK {
		t.Fatalf("get after drain: %d", code)
	}
	if !st.Done || st.Error != "" {
		t.Fatalf("in-flight incident did not complete across drain: %+v", st)
	}

	rec = postJSON(t, d, "/api/incidents", liveIncident(t, "INC-DRAIN-2"))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("late submit status %d, want 503", rec.Code)
	}
	// The limiter slot for the refused submission must have been freed.
	if n := d.limiter.Inflight(); n != 0 {
		t.Fatalf("inflight after drain = %d", n)
	}

	// A late SSE subscription is refused too, instead of hanging forever.
	req := httptest.NewRequest("GET", "/api/incidents/stream", nil)
	srec := httptest.NewRecorder()
	d.ServeHTTP(srec, req)
	if srec.Code != http.StatusServiceUnavailable {
		t.Fatalf("late stream status %d, want 503", srec.Code)
	}
}

// TestDaemonRateLimit verifies per-team admission: burst exhaustion maps
// to 429 with a Retry-After hint, while a second team still gets through.
func TestDaemonRateLimit(t *testing.T) {
	d, _ := newTestDaemon(t, httpd.LimitConfig{Rate: 0.0001, Burst: 1, MaxInflight: -1}, 16)

	rec := postJSON(t, d, "/api/incidents", liveIncident(t, "INC-RATE-1"))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("first submit status %d: %s", rec.Code, rec.Body.String())
	}
	rec = postJSON(t, d, "/api/incidents", liveIncident(t, "INC-RATE-2"))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-burst status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	other := liveIncident(t, "INC-RATE-3")
	other.OwningTeam = "Networking"
	rec = postJSON(t, d, "/api/incidents", other)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("other team status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestDaemonSubmitValidation covers the strict front door: unknown
// fields 400, oversized bodies 413, invalid incidents 422, duplicates
// 409, unknown feedback targets 404.
func TestDaemonSubmitValidation(t *testing.T) {
	d, _ := newTestDaemon(t, httpd.LimitConfig{Rate: 1000, Burst: 1000}, 16)

	req := httptest.NewRequest("POST", "/api/incidents", strings.NewReader(`{"id":"x","titel":"typo"}`))
	rec := httptest.NewRecorder()
	d.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown field status %d, want 400", rec.Code)
	}

	big := fmt.Sprintf(`{"id":"big","title":%q}`, strings.Repeat("x", int(httpd.MaxBody)+1024))
	req = httptest.NewRequest("POST", "/api/incidents", strings.NewReader(big))
	rec = httptest.NewRecorder()
	d.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized status %d, want 413", rec.Code)
	}

	rec = postJSON(t, d, "/api/incidents", &rcacopilot.Incident{ID: "no-title"})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("invalid incident status %d, want 422: %s", rec.Code, rec.Body.String())
	}

	inc := liveIncident(t, "INC-DUP-1")
	if rec = postJSON(t, d, "/api/incidents", inc); rec.Code != http.StatusAccepted {
		t.Fatalf("submit status %d", rec.Code)
	}
	if rec = postJSON(t, d, "/api/incidents", inc); rec.Code != http.StatusConflict {
		t.Fatalf("duplicate status %d, want 409", rec.Code)
	}

	rec = postJSON(t, d, "/api/feedback", feedbackRequest{IncidentID: "INC-NEVER", Verdict: "confirm"})
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown feedback target status %d, want 404", rec.Code)
	}
}

// TestDaemonMountsHandlerAPI checks the daemon serves handler CRUD
// (httpd.HandlerAPI) beside the incident endpoints.
func TestDaemonMountsHandlerAPI(t *testing.T) {
	d, _ := newTestDaemon(t, httpd.LimitConfig{}, 4)
	var out struct {
		Handlers []json.RawMessage `json:"handlers"`
	}
	if code := getJSON(t, d, "/api/handlers?team=Transport", &out); code != http.StatusOK {
		t.Fatalf("handlers status %d", code)
	}
	if len(out.Handlers) == 0 {
		t.Fatal("no handlers served")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
