package cluster

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestExchangeRejectsAnOverLimitBody: a body of exactly limit bytes reads
// whole, one byte more is an error rather than a cut body, and a peer
// fill over its limit is a miss.
func TestExchangeRejectsAnOverLimitBody(t *testing.T) {
	const body = "0123456789"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, body)
	}))
	defer ts.Close()
	ctx := context.Background()
	n := int64(len(body))
	resp, data, err := exchange(ctx, ts.Client(), http.MethodGet, ts.URL, nil, "", 5*time.Second, n)
	if err != nil || resp.StatusCode != http.StatusOK || string(data) != body {
		t.Fatalf("body at the limit: %q, %v", data, err)
	}
	if _, data, err := exchange(ctx, ts.Client(), http.MethodGet, ts.URL, nil, "", 5*time.Second, n-1); err == nil {
		t.Fatalf("a %d-byte body read under a %d-byte limit as %q with no error", n, n-1, data)
	}
	if data, ok := peerCacheLookup(ctx, ts.Client(), ts.URL, "k", n); !ok || string(data) != body {
		t.Fatalf("peer fill at the limit: %q, hit %v", data, ok)
	}
	if data, ok := peerCacheLookup(ctx, ts.Client(), ts.URL, "k", n-1); ok {
		t.Fatalf("an over-limit peer fill hit with %q", data)
	}
}
