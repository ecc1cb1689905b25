package llm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
)

// Cached wraps a Client with a deterministic prompt cache: identical
// requests (same messages, temperature and token budget) return the stored
// response without re-invoking the model. The prediction stage re-summarizes
// historical incidents whenever ablations rebuild the store, so caching cuts
// repeated-experiment cost the same way response caching does against the
// real API. Cached is safe for concurrent use if the underlying client is.
type Cached struct {
	inner Client

	mu     sync.Mutex
	byKey  map[string]Response
	hits   int
	misses int
}

var _ Client = (*Cached)(nil)

// NewCached wraps client with an empty cache.
func NewCached(client Client) *Cached {
	return &Cached{inner: client, byKey: make(map[string]Response)}
}

// Name implements Client.
func (c *Cached) Name() string { return c.inner.Name() }

// ContextWindow implements Client.
func (c *Cached) ContextWindow() int { return c.inner.ContextWindow() }

// CountTokens implements Client.
func (c *Cached) CountTokens(text string) int { return c.inner.CountTokens(text) }

// Embed implements Client (embeddings are deterministic and cheap; they
// pass through uncached).
func (c *Cached) Embed(text string) ([]float64, error) { return c.inner.Embed(text) }

// Complete implements Client with request-keyed memoization. Only
// deterministic requests (temperature 0) are cached; sampled requests pass
// through so stability experiments still observe model variance.
func (c *Cached) Complete(req Request) (Response, error) {
	if req.Temperature != 0 {
		return c.inner.Complete(req)
	}
	key := requestKey(req)
	c.mu.Lock()
	if resp, ok := c.byKey[key]; ok {
		c.hits++
		c.mu.Unlock()
		return resp, nil
	}
	c.misses++
	c.mu.Unlock()

	resp, err := c.inner.Complete(req)
	if err != nil {
		return Response{}, err
	}
	c.mu.Lock()
	c.byKey[key] = resp
	c.mu.Unlock()
	return resp, nil
}

// Stats returns cache hit/miss counts.
func (c *Cached) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of cached responses.
func (c *Cached) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byKey)
}

func requestKey(req Request) string {
	h := sha256.New()
	fmt.Fprintf(h, "%f|%d|", req.Temperature, req.MaxTokens)
	for _, m := range req.Messages {
		fmt.Fprintf(h, "%s\x00%s\x00", m.Role, m.Content)
	}
	return hex.EncodeToString(h.Sum(nil))
}
