// Package httpd is the hardened HTTP serving layer of the RCACopilot
// daemon (cmd/rcacopilotd, which serves incidents and handler
// construction). It owns the parts a fragile front door gets wrong:
//
//   - NewServer builds an http.Server with read-header, read, write and
//     idle timeouts, so a slowloris client cannot pin a connection open
//     and a wedged handler cannot stream forever. Endpoints that
//     legitimately stream (SSE) opt out per response with
//     http.ResponseController.SetWriteDeadline.
//   - Serve runs the server until a context — typically wired to
//     SIGTERM/SIGINT via signal.NotifyContext — is cancelled, then runs
//     the caller's drain hook (stop admitting, close the incident
//     channel, flush feedback) and shuts the listener down gracefully,
//     bounded by a grace period. In-flight requests complete; they are
//     never killed mid-response.
//   - DecodeJSON bounds request bodies with http.MaxBytesReader and
//     decodes strictly (DisallowUnknownFields, no trailing garbage), so
//     an oversized body is a 413, a malformed or mistyped document is a
//     400, and a misspelled field can never be silently dropped.
//   - TeamLimiter (limit.go) is per-team admission control: a token
//     bucket per team plus a global in-flight bound drawn from the shared
//     internal/parallel worker budget.
package httpd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Default server timeouts. ReadHeaderTimeout is the slowloris bound;
// WriteTimeout is generous because responses carry rendered reports, and
// streaming endpoints clear their deadline per event instead.
const (
	DefaultReadHeaderTimeout = 5 * time.Second
	DefaultReadTimeout       = 30 * time.Second
	DefaultWriteTimeout      = 60 * time.Second
	DefaultIdleTimeout       = 2 * time.Minute
)

// MaxBody is the default request-body bound for DecodeJSON: far above any
// legitimate handler document or incident submission, far below what an
// attacker needs to matter.
const MaxBody int64 = 1 << 20

// Decode failure classes, separated so endpoints map them to status codes
// with errors.Is instead of matching error text.
var (
	// ErrBodyTooLarge reports a request body over the DecodeJSON bound
	// (HTTP 413).
	ErrBodyTooLarge = errors.New("request body too large")
	// ErrBadBody reports a syntactically or structurally invalid JSON
	// body — malformed JSON, unknown fields, trailing garbage (HTTP 400).
	ErrBadBody = errors.New("malformed request body")
)

// NewServer returns an http.Server for addr/handler with the hardened
// default timeouts. Callers adjust fields before Serve if an endpoint mix
// needs different bounds.
func NewServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: DefaultReadHeaderTimeout,
		ReadTimeout:       DefaultReadTimeout,
		WriteTimeout:      DefaultWriteTimeout,
		IdleTimeout:       DefaultIdleTimeout,
	}
}

// Serve runs srv until ctx is cancelled, then drains gracefully: drain
// (which may be nil) runs first — the application-level shutdown sequence,
// e.g. stop admitting incidents, close the stream, flush feedback — then
// srv.Shutdown completes in-flight requests and closes idle connections.
// Both phases share one grace-period budget; when it expires, remaining
// connections are closed hard. Serve returns nil after a clean drain, the
// listen error if the server never came up, or the shutdown error.
func Serve(ctx context.Context, srv *http.Server, grace time.Duration, drain func(context.Context)) error {
	if grace <= 0 {
		grace = 30 * time.Second
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		// ListenAndServe only returns early on failure to serve.
		return err
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if drain != nil {
		drain(dctx)
	}
	err := srv.Shutdown(dctx)
	<-errc // always http.ErrServerClosed after Shutdown
	return err
}

// DecodeJSON decodes the request body into v, bounded by maxBytes
// (MaxBody when <= 0) and strict: unknown fields and trailing data are
// rejected, so a misspelled field in a handler document 400s instead of
// silently dropping. Failures wrap ErrBodyTooLarge or ErrBadBody for
// errors.Is dispatch; WriteDecodeErr maps them to status codes.
func DecodeJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) error {
	if maxBytes <= 0 {
		maxBytes = MaxBody
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return fmt.Errorf("%w: limit %d bytes", ErrBodyTooLarge, mbe.Limit)
		}
		return fmt.Errorf("%w: %v", ErrBadBody, err)
	}
	if dec.More() {
		return fmt.Errorf("%w: trailing data after JSON document", ErrBadBody)
	}
	return nil
}

// WriteDecodeErr writes the status a DecodeJSON failure maps to: 413 for
// an oversized body, 400 otherwise.
func WriteDecodeErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if errors.Is(err, ErrBodyTooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	WriteErr(w, status, err)
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Headers are already sent on encode failure; nothing more to report.
	_ = json.NewEncoder(w).Encode(v)
}

// WriteErr writes a JSON error envelope with the given status.
func WriteErr(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// QueryPosInt parses an optional positive-integer query parameter.
// Absent returns (0, false, nil); present but malformed or non-positive
// returns an error, so "?k=abc" surfaces as a 400 instead of being
// silently ignored.
func QueryPosInt(r *http.Request, name string) (int, bool, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return 0, false, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, false, fmt.Errorf("query parameter %s: want a positive integer, got %q", name, s)
	}
	return n, true, nil
}
