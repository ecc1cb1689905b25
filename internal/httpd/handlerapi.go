package httpd

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/handler"
	"repro/internal/incident"
)

// HandlerAPI serves the handler-construction endpoints over a registry —
// the substitute for the paper's Figure 10 GUI. cmd/rcacopilotd mounts it
// alongside the incident-serving endpoints.
type HandlerAPI struct {
	reg *handler.Registry
	mux *http.ServeMux
}

// NewHandlerAPI builds the HTTP handler over the registry.
func NewHandlerAPI(reg *handler.Registry) *HandlerAPI {
	a := &HandlerAPI{reg: reg, mux: http.NewServeMux()}
	a.mux.HandleFunc("GET /", a.index)
	a.Register(a.mux)
	return a
}

// Register mounts the handler-construction endpoints (everything except
// the standalone index page) on an existing mux, so a daemon serving more
// than handler CRUD composes them with its own routes.
func (a *HandlerAPI) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /api/ops", a.ops)
	mux.HandleFunc("GET /api/handlers", a.list)
	mux.HandleFunc("GET /api/handlers/{alert}", a.get)
	mux.HandleFunc("POST /api/handlers", a.save)
	mux.HandleFunc("GET /api/versions/{alert}", a.versions)
}

// ServeHTTP implements http.Handler.
func (a *HandlerAPI) ServeHTTP(w http.ResponseWriter, r *http.Request) { a.mux.ServeHTTP(w, r) }

func (a *HandlerAPI) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<!DOCTYPE html>
<title>RCACopilot handler construction</title>
<h1>RCACopilot handler construction</h1>
<p>To support a new alert type, add a handler composed of reusable
scope-switching, query and mitigation actions; every save appends a new
version so historical changes stay addressable.</p>
<ul>
<li><code>GET /api/ops</code> — reusable query actions</li>
<li><code>GET /api/handlers?team=Transport</code> — the team's handlers</li>
<li><code>GET /api/handlers/{alertType}?team=Transport&amp;version=N</code> — one handler</li>
<li><code>POST /api/handlers</code> — save (JSON handler document)</li>
<li><code>GET /api/versions/{alertType}?team=Transport</code> — version count</li>
</ul>`)
}

func (a *HandlerAPI) ops(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{"ops": handler.OpNames()})
}

func team(r *http.Request) string {
	t := r.URL.Query().Get("team")
	if t == "" {
		t = "Transport"
	}
	return t
}

func (a *HandlerAPI) list(w http.ResponseWriter, r *http.Request) {
	hs, err := a.reg.List(team(r))
	if err != nil {
		WriteErr(w, http.StatusInternalServerError, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"team": team(r), "handlers": hs})
}

func (a *HandlerAPI) get(w http.ResponseWriter, r *http.Request) {
	alert := incident.AlertType(r.PathValue("alert"))
	var (
		h   *handler.Handler
		err error
	)
	if v := r.URL.Query().Get("version"); v != "" {
		n, convErr := strconv.Atoi(v)
		if convErr != nil {
			WriteErr(w, http.StatusBadRequest, fmt.Errorf("bad version %q", v))
			return
		}
		h, err = a.reg.Version(team(r), alert, n)
	} else {
		h, err = a.reg.Latest(team(r), alert)
	}
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, handler.ErrNotFound) || errors.Is(err, handler.ErrNoVersion) {
			status = http.StatusNotFound
		}
		WriteErr(w, status, err)
		return
	}
	WriteJSON(w, http.StatusOK, h)
}

func (a *HandlerAPI) save(w http.ResponseWriter, r *http.Request) {
	var h handler.Handler
	if err := DecodeJSON(w, r, MaxBody, &h); err != nil {
		WriteDecodeErr(w, err)
		return
	}
	version, err := a.reg.Save(&h)
	if err != nil {
		WriteErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	WriteJSON(w, http.StatusCreated, map[string]any{
		"team": h.Team, "alertType": h.AlertType, "version": version,
	})
}

func (a *HandlerAPI) versions(w http.ResponseWriter, r *http.Request) {
	alert := incident.AlertType(r.PathValue("alert"))
	WriteJSON(w, http.StatusOK, map[string]any{
		"team": team(r), "alertType": alert,
		"versions": a.reg.Versions(team(r), alert),
	})
}
