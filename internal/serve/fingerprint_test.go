package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// fingerprintBodies returns every example spec and every seed input of the
// scenario parsers' fuzz corpora, keyed by file path.
func fingerprintBodies(t *testing.T) map[string][]byte {
	t.Helper()
	bodies := map[string][]byte{}
	examples, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(examples) == 0 {
		t.Fatalf("no example specs (%v)", err)
	}
	for _, p := range examples {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		bodies[p] = b
	}
	corpus, err := filepath.Glob("../scenario/testdata/fuzz/*/*")
	if err != nil || len(corpus) == 0 {
		t.Fatalf("no fuzz corpus (%v)", err)
	}
	for _, p := range corpus {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		// "go test fuzz v1" then one []byte("...") or string("...") line.
		lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
		if len(lines) != 2 {
			t.Fatalf("%s: unexpected corpus layout", p)
		}
		arg := string(lines[1])
		open := strings.IndexByte(arg, '(')
		if open < 0 || !strings.HasSuffix(arg, ")") {
			t.Fatalf("%s: cannot decode %q", p, arg)
		}
		s, err := strconv.Unquote(arg[open+1 : len(arg)-1])
		if err != nil {
			t.Fatalf("%s: cannot decode %q: %v", p, arg, err)
		}
		bodies[p] = []byte(s)
	}
	return bodies
}

// TestFingerprintMatchesJSONMarshal: the fingerprints hash MarshalJSON's
// bytes directly, and must equal the SHA-256 of the json.Marshal form
// they were defined by, for every example and fuzz seed that parses.
func TestFingerprintMatchesJSONMarshal(t *testing.T) {
	evals, optimizes := 0, 0
	for path, body := range fingerprintBodies(t) {
		if sp, err := scenario.ParseSpec(body); err == nil {
			canon, err := json.Marshal(sp)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(canon)
			got, err := FingerprintSpec(sp)
			if err != nil || got != hex.EncodeToString(sum[:]) {
				t.Errorf("%s: FingerprintSpec = %s, %v; json.Marshal form hashes to %x", path, got, err, sum)
			}
			evals++
		}
		if osp, err := scenario.ParseOptimizeSpec(body); err == nil {
			canon, err := json.Marshal(osp)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(append([]byte("optimize|"), canon...))
			got, err := FingerprintOptimizeSpec(osp)
			if err != nil || got != hex.EncodeToString(sum[:]) {
				t.Errorf("%s: FingerprintOptimizeSpec = %s, %v; json.Marshal form hashes to %x", path, got, err, sum)
			}
			optimizes++
		}
	}
	if evals < 4 || optimizes < 1 {
		t.Errorf("only %d eval and %d optimize bodies parsed; the comparison is near empty", evals, optimizes)
	}
}

// TestEvalDeclaresContentLength: replies carry their length, miss and
// hit alike, so a reader can size its buffer, and bodies past net/http's
// 2 KiB buffer do not fall back to chunked encoding.
func TestEvalDeclaresContentLength(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, nil)
	body, err := os.ReadFile("../../examples/scenarios/multiwall-sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"miss", "hit"} {
		resp, data := postEval(t, ts.URL, string(body))
		if resp.StatusCode != 200 || resp.Header.Get(CacheHeader) != want {
			t.Fatalf("status %d, cache %q; want 200 %s", resp.StatusCode, resp.Header.Get(CacheHeader), want)
		}
		if len(data) <= 2048 {
			t.Fatalf("reply is %d bytes; the check needs one past the 2 KiB buffer", len(data))
		}
		if resp.ContentLength != int64(len(data)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, transfer encoding %v; body is %d bytes", want, resp.ContentLength, resp.TransferEncoding, len(data))
		}
	}
}
