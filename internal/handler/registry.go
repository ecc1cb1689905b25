package handler

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/incident"
	"repro/internal/kvstore"
)

// Sentinel errors the registry wraps into its lookup failures, so HTTP
// front ends pick status codes with errors.Is instead of matching error
// text.
var (
	// ErrNotFound reports that no handler is registered for the requested
	// team/alert type.
	ErrNotFound = errors.New("no handler registered")
	// ErrNoVersion reports that the handler exists but the requested
	// version does not.
	ErrNoVersion = errors.New("no such handler version")
)

// Registry stores handlers in the versioned kvstore, keyed by alert type,
// and matches incoming incidents to the right handler — the "Handler
// Matching" box of the paper's architecture (Figure 4). Saving an edited
// handler appends a new version; old versions stay addressable, matching
// the paper's handler version tracking.
type Registry struct {
	store *kvstore.Store
	// mu guards matched: Match's decode of each key's latest version,
	// tagged with the store Revision read before the decode.
	mu      sync.Mutex
	matched map[string]decoded
}

type decoded struct {
	rev uint64
	h   *Handler
}

// NewRegistry returns a registry backed by the given store.
func NewRegistry(store *kvstore.Store) *Registry {
	if store == nil {
		store = kvstore.New()
	}
	return &Registry{store: store, matched: make(map[string]decoded)}
}

func handlerKey(team string, alertType incident.AlertType) string {
	return "handler/" + team + "/" + string(alertType)
}

// Save validates the handler and appends it as a new version, returning the
// assigned version number.
func (r *Registry) Save(h *Handler) (int, error) {
	if err := h.Validate(); err != nil {
		return 0, err
	}
	cp := h.Clone()
	cp.Version = r.store.Versions(handlerKey(cp.Team, cp.AlertType)) + 1
	data, err := cp.Marshal()
	if err != nil {
		return 0, err
	}
	return r.store.Put(handlerKey(cp.Team, cp.AlertType), data), nil
}

// Match returns the latest handler version for the incident's alert type
// within the given team — the paper's 100%-accurate handler activation.
//
// Each stored version is decoded once: the result is shared by every
// Match until the store changes (kvstore.Store.Revision), so it is
// read-only. A caller that edits a handler starts from Latest or from
// Clone.
func (r *Registry) Match(team string, inc *incident.Incident) (*Handler, error) {
	key := handlerKey(team, inc.Alert.Type)
	rev := r.store.Revision()
	r.mu.Lock()
	d, ok := r.matched[key]
	r.mu.Unlock()
	if ok && d.rev == rev {
		return d.h, nil
	}
	h, err := r.latest(key, team, inc.Alert.Type)
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, ok := r.matched[key]
	if err != nil {
		if errors.Is(err, ErrNotFound) && ok && cur.rev <= rev {
			delete(r.matched, key) // the key is gone: drop its decode
		}
		return nil, err
	}
	if !ok || cur.rev <= rev {
		r.matched[key] = decoded{rev: rev, h: h}
	}
	return h, nil
}

// Latest returns a private decode of the newest stored version for the
// team/alert type.
func (r *Registry) Latest(team string, alertType incident.AlertType) (*Handler, error) {
	return r.latest(handlerKey(team, alertType), team, alertType)
}

func (r *Registry) latest(key, team string, alertType incident.AlertType) (*Handler, error) {
	data, ok := r.store.Get(key)
	if !ok {
		return nil, fmt.Errorf("handler: team %s alert type %q: %w", team, alertType, ErrNotFound)
	}
	return Unmarshal(data)
}

// Version returns a specific stored version.
func (r *Registry) Version(team string, alertType incident.AlertType, version int) (*Handler, error) {
	data, ok := r.store.GetVersion(handlerKey(team, alertType), version)
	if !ok {
		return nil, fmt.Errorf("handler: team %s alert type %q version %d: %w", team, alertType, version, ErrNoVersion)
	}
	return Unmarshal(data)
}

// Versions reports how many versions exist for the team/alert type.
func (r *Registry) Versions(team string, alertType incident.AlertType) int {
	return r.store.Versions(handlerKey(team, alertType))
}

// List returns the latest version of every handler registered for the team.
func (r *Registry) List(team string) ([]*Handler, error) {
	keys := r.store.Keys("handler/" + team + "/")
	out := make([]*Handler, 0, len(keys))
	for _, k := range keys {
		data, ok := r.store.Get(k)
		if !ok {
			continue
		}
		h, err := Unmarshal(data)
		if err != nil {
			return nil, err
		}
		out = append(out, h)
	}
	return out, nil
}

// EnabledCount returns how many of the team's handlers are enabled in
// production (Table 4's "# Enabled handler" column).
func (r *Registry) EnabledCount(team string) (int, error) {
	hs, err := r.List(team)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, h := range hs {
		if h.Enabled {
			n++
		}
	}
	return n, nil
}

// InstallBuiltins saves the builtin handler suite for the team and returns
// how many were installed.
func (r *Registry) InstallBuiltins(team string) (int, error) {
	hs, err := BuiltinAll()
	if err != nil {
		return 0, err
	}
	for _, h := range hs {
		h.Team = team
		if _, err := r.Save(h); err != nil {
			return 0, err
		}
	}
	return len(hs), nil
}
