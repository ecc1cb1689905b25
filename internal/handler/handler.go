// Package handler implements RCACopilot's diagnostic-information collection
// stage: incident handlers.
//
// A handler is the decision-tree workflow of §4.1 — one per alert type,
// built from reusable actions of three kinds: scope switching actions
// (adjust the investigation scope between machine and forest), query actions
// (collect diagnostic information from a target data source, returning a
// key-value table and an outcome that steers control flow), and mitigation
// actions (suggest strategic steps such as "restart service"). Handlers are
// serializable, versioned in the store, and constructed/edited dynamically,
// mirroring the paper's web-based handler construction UI (Figure 10).
package handler

import (
	"encoding/json"
	"fmt"

	"repro/internal/incident"
)

// Kind is the action class inside a handler node.
type Kind string

// The three action kinds of §4.1.2.
const (
	KindScopeSwitch Kind = "scope-switch"
	KindQuery       Kind = "query"
	KindMitigation  Kind = "mitigation"
)

// Outcome labels an edge out of a node. Query actions produce outcomes such
// as "True"/"False" or an exception-type enum; OutcomeDefault is followed
// when no specific edge matches.
type Outcome string

// Common outcomes.
const (
	OutcomeDefault Outcome = "Default"
	OutcomeTrue    Outcome = "True"
	OutcomeFalse   Outcome = "False"
)

// ActionSpec declaratively describes one action so handlers can be stored,
// versioned and edited as data. Op selects a registered implementation for
// query actions; Params configure it.
type ActionSpec struct {
	Kind   Kind              `json:"kind"`
	Op     string            `json:"op"`
	Params map[string]string `json:"params,omitempty"`
}

// Node is one step of the handler's decision tree.
type Node struct {
	ID     string             `json:"id"`
	Label  string             `json:"label,omitempty"`
	Action ActionSpec         `json:"action"`
	Next   map[Outcome]string `json:"next,omitempty"` // outcome -> node ID
}

// Handler is a complete incident handler: a rooted DAG of nodes keyed to an
// alert type.
type Handler struct {
	Name      string             `json:"name"`
	AlertType incident.AlertType `json:"alertType"`
	Team      string             `json:"team"`
	Root      string             `json:"root"`
	Nodes     map[string]*Node   `json:"nodes"`
	// Enabled handlers run in production; disabled ones are under
	// development or testing (§5.5).
	Enabled bool `json:"enabled"`
	// Version is assigned by the registry on save.
	Version int `json:"version,omitempty"`
}

// Validate checks structural integrity: a root that exists, edges that
// reference known nodes, ops that are registered, and acyclicity (OCE
// decision trees must terminate).
func (h *Handler) Validate() error {
	if h.Name == "" {
		return fmt.Errorf("handler: missing name")
	}
	if h.AlertType == "" {
		return fmt.Errorf("handler %s: missing alert type", h.Name)
	}
	if len(h.Nodes) == 0 {
		return fmt.Errorf("handler %s: no nodes", h.Name)
	}
	if _, ok := h.Nodes[h.Root]; !ok {
		return fmt.Errorf("handler %s: root node %q not found", h.Name, h.Root)
	}
	for id, n := range h.Nodes {
		if n == nil {
			return fmt.Errorf("handler %s: nil node %q", h.Name, id)
		}
		if n.ID != id {
			return fmt.Errorf("handler %s: node key %q does not match node ID %q", h.Name, id, n.ID)
		}
		switch n.Action.Kind {
		case KindScopeSwitch, KindMitigation:
		case KindQuery:
			if !OpRegistered(n.Action.Op) {
				return fmt.Errorf("handler %s: node %q uses unregistered op %q", h.Name, id, n.Action.Op)
			}
		default:
			return fmt.Errorf("handler %s: node %q has unknown action kind %q", h.Name, id, n.Action.Kind)
		}
		for out, next := range n.Next {
			if _, ok := h.Nodes[next]; !ok {
				return fmt.Errorf("handler %s: node %q edge %q targets unknown node %q", h.Name, id, out, next)
			}
		}
	}
	return h.checkAcyclic()
}

func (h *Handler) checkAcyclic() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int, len(h.Nodes))
	var visit func(id string) error
	visit = func(id string) error {
		switch color[id] {
		case gray:
			return fmt.Errorf("handler %s: cycle through node %q", h.Name, id)
		case black:
			return nil
		}
		color[id] = gray
		for _, next := range h.Nodes[id].Next {
			if err := visit(next); err != nil {
				return err
			}
		}
		color[id] = black
		return nil
	}
	for id := range h.Nodes {
		if err := visit(id); err != nil {
			return err
		}
	}
	return nil
}

// NumActions returns the node count (the unit Table 4 reports per team).
func (h *Handler) NumActions() int { return len(h.Nodes) }

// Marshal serializes the handler to JSON for the versioned store.
func (h *Handler) Marshal() ([]byte, error) {
	data, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("handler %s: marshal: %w", h.Name, err)
	}
	return data, nil
}

// Unmarshal parses a handler from its stored JSON form.
func Unmarshal(data []byte) (*Handler, error) {
	var h Handler
	if err := json.Unmarshal(data, &h); err != nil {
		return nil, fmt.Errorf("handler: unmarshal: %w", err)
	}
	return &h, nil
}

// Clone returns a deep copy, useful when editing a stored handler.
func (h *Handler) Clone() *Handler {
	cp := *h
	cp.Nodes = make(map[string]*Node, len(h.Nodes))
	for id, n := range h.Nodes {
		nn := *n
		if n.Params() != nil {
			nn.Action.Params = make(map[string]string, len(n.Action.Params))
			for k, v := range n.Action.Params {
				nn.Action.Params[k] = v
			}
		}
		if n.Next != nil {
			nn.Next = make(map[Outcome]string, len(n.Next))
			for o, t := range n.Next {
				nn.Next[o] = t
			}
		}
		cp.Nodes[id] = &nn
	}
	return &cp
}

// Params returns the node's action parameters (possibly nil).
func (n *Node) Params() map[string]string { return n.Action.Params }

// Builder provides a fluent way to assemble handlers in code and from the
// handler-construction API.
type Builder struct {
	h   *Handler
	err error
}

// NewBuilder starts a handler for the given alert type.
func NewBuilder(name string, alertType incident.AlertType, team string) *Builder {
	return &Builder{h: &Handler{
		Name:      name,
		AlertType: alertType,
		Team:      team,
		Nodes:     make(map[string]*Node),
		Enabled:   true,
	}}
}

// Node adds a node. The first node added becomes the root.
func (b *Builder) Node(id, label string, spec ActionSpec) *Builder {
	if b.err != nil {
		return b
	}
	if _, dup := b.h.Nodes[id]; dup {
		b.err = fmt.Errorf("handler %s: duplicate node %q", b.h.Name, id)
		return b
	}
	b.h.Nodes[id] = &Node{ID: id, Label: label, Action: spec}
	if b.h.Root == "" {
		b.h.Root = id
	}
	return b
}

// Edge wires from's outcome to the node to.
func (b *Builder) Edge(from string, out Outcome, to string) *Builder {
	if b.err != nil {
		return b
	}
	n, ok := b.h.Nodes[from]
	if !ok {
		b.err = fmt.Errorf("handler %s: edge from unknown node %q", b.h.Name, from)
		return b
	}
	if n.Next == nil {
		n.Next = make(map[Outcome]string)
	}
	n.Next[out] = to
	return b
}

// Build validates and returns the handler.
func (b *Builder) Build() (*Handler, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.h.Validate(); err != nil {
		return nil, err
	}
	return b.h, nil
}
