package llm

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// countingClient is a minimal Client that counts Complete invocations.
type countingClient struct {
	mu    sync.Mutex
	calls int
}

func (c *countingClient) Name() string             { return "counting" }
func (c *countingClient) ContextWindow() int       { return 1024 }
func (c *countingClient) CountTokens(s string) int { return len(s) / 4 }
func (c *countingClient) Embed(string) ([]float64, error) {
	return []float64{1}, nil
}
func (c *countingClient) Complete(req Request) (Response, error) {
	c.mu.Lock()
	c.calls++
	n := c.calls
	c.mu.Unlock()
	return Response{
		Content:      fmt.Sprintf("reply-%d to %s", n, req.Messages[0].Content),
		ModelLatency: time.Second,
	}, nil
}

func req(content string, temp float64) Request {
	return Request{Messages: []Message{{Role: RoleUser, Content: content}}, Temperature: temp}
}

func TestCachedMemoizesDeterministicRequests(t *testing.T) {
	inner := &countingClient{}
	c := NewCached(inner)
	r1, err := c.Complete(req("hello", 0))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Complete(req("hello", 0))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Content != r2.Content {
		t.Fatal("cached response must be identical")
	}
	if inner.calls != 1 {
		t.Fatalf("inner calls = %d, want 1", inner.calls)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 || c.Len() != 1 {
		t.Fatalf("stats = %d/%d len=%d", hits, misses, c.Len())
	}
}

func TestCachedDistinguishesRequests(t *testing.T) {
	inner := &countingClient{}
	c := NewCached(inner)
	if _, err := c.Complete(req("a", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Complete(req("b", 0)); err != nil {
		t.Fatal(err)
	}
	withBudget := req("a", 0)
	withBudget.MaxTokens = 5
	if _, err := c.Complete(withBudget); err != nil {
		t.Fatal(err)
	}
	if inner.calls != 3 {
		t.Fatalf("inner calls = %d, want 3 (distinct requests)", inner.calls)
	}
}

func TestCachedBypassesSampledRequests(t *testing.T) {
	inner := &countingClient{}
	c := NewCached(inner)
	if _, err := c.Complete(req("x", 0.7)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Complete(req("x", 0.7)); err != nil {
		t.Fatal(err)
	}
	if inner.calls != 2 {
		t.Fatalf("sampled requests must not be cached: calls = %d", inner.calls)
	}
	if c.Len() != 0 {
		t.Fatal("sampled requests must not populate the cache")
	}
}

func TestCachedDelegatesMetadata(t *testing.T) {
	c := NewCached(&countingClient{})
	if c.Name() != "counting" || c.ContextWindow() != 1024 || c.CountTokens("12345678") != 2 {
		t.Fatal("metadata delegation broken")
	}
	v, err := c.Embed("text")
	if err != nil || len(v) != 1 {
		t.Fatal("embed delegation broken")
	}
}

func TestCachedConcurrentAccess(t *testing.T) {
	c := NewCached(&countingClient{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := c.Complete(req(fmt.Sprintf("p-%d", j%5), 0)); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Len() != 5 {
		t.Fatalf("cache len = %d, want 5", c.Len())
	}
}
