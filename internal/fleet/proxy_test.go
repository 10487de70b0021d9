package fleet

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/robust"
)

// gatewayOver builds a gateway whose single replica is handler.
func gatewayOver(t *testing.T, handler http.HandlerFunc) (*Gateway, *replica) {
	t.Helper()
	prev := obs.Default()
	obs.SetDefault(obs.NewRegistry())
	t.Cleanup(func() { obs.SetDefault(prev) })
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	g, err := NewGateway(Config{Replicas: []string{ts.URL}, Timeout: 5 * time.Second, RetryBase: time.Millisecond, HedgeQuantile: -1})
	if err != nil {
		t.Fatal(err)
	}
	return g, g.replicas[0]
}

// TestAttemptRelaysBodiesExactly: bodies with a declared length (empty,
// small, large) and chunked bodies of unknown length come back byte for
// byte.
func TestAttemptRelaysBodiesExactly(t *testing.T) {
	for _, size := range []int{0, 1, 511, 512, 6 << 10, 1 << 20} {
		for _, chunked := range []bool{false, true} {
			want := bytes.Repeat([]byte("0123456789abcdef"), size/16+1)[:size]
			g, rep := gatewayOver(t, func(w http.ResponseWriter, r *http.Request) {
				if !chunked {
					w.Header().Set("Content-Length", strconv.Itoa(size))
				}
				w.Write(want[:size/2])
				if chunked {
					w.(http.Flusher).Flush() // forces chunked encoding: no Content-Length
				}
				w.Write(want[size/2:])
			})
			res, err := g.attempt(context.Background(), rep, http.MethodPost, "/v1/eval", "", []byte("{}"), 0, false)
			if err != nil {
				t.Fatalf("size %d chunked %v: %v", size, chunked, err)
			}
			if !bytes.Equal(res.body, want) {
				t.Errorf("size %d chunked %v: relayed %d bytes, differing from the %d sent", size, chunked, len(res.body), size)
			}
		}
	}
}

// TestAttemptBoundsOversizedUpstream: an upstream larger than
// maxProxyBody is cut at the bound whether or not it declares its length.
func TestAttemptBoundsOversizedUpstream(t *testing.T) {
	big := bytes.Repeat([]byte{'x'}, maxProxyBody+4096)
	for _, declared := range []bool{true, false} {
		g, rep := gatewayOver(t, func(w http.ResponseWriter, r *http.Request) {
			if declared {
				w.Header().Set("Content-Length", strconv.Itoa(len(big)))
			}
			w.Write(big)
		})
		res, err := g.attempt(context.Background(), rep, http.MethodGet, "/v1/cache", "", nil, 0, false)
		if err != nil {
			t.Fatalf("declared %v: %v", declared, err)
		}
		if len(res.body) != maxProxyBody {
			t.Errorf("declared %v: buffered %d bytes, want the %d-byte bound", declared, len(res.body), maxProxyBody)
		}
	}
}

// TestAttemptShortBodyIsTransient: an upstream that closes the connection
// before sending its declared Content-Length is a transient failure (the
// failover loop retries it), never a truncated success.
func TestAttemptShortBodyIsTransient(t *testing.T) {
	g, rep := gatewayOver(t, func(w http.ResponseWriter, r *http.Request) {
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{\"short\":")
		buf.Flush()
	})
	_, err := g.attempt(context.Background(), rep, http.MethodPost, "/v1/eval", "", []byte("{}"), 0, false)
	if err == nil {
		t.Fatal("short body relayed as a success")
	}
	if robust.Classify(err) != robust.Transient {
		t.Errorf("short body classified %v (%v), want Transient", robust.Classify(err), err)
	}
}

// TestRelayDeclaresContentLength: the gateway relays the buffered body
// with its length declared.
func TestRelayDeclaresContentLength(t *testing.T) {
	g, _ := newTestGateway(t, 2, nil)
	w := postGateway(t, g, "/v1/eval", `{"id":"cl","axis":{"generations":1},"cases":[{}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if got, want := w.Header().Get("Content-Length"), strconv.Itoa(w.Body.Len()); got != want {
		t.Errorf("Content-Length = %q, want %q", got, want)
	}
}
