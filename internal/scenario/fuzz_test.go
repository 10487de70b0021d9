package scenario_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/robust"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// addExamples seeds f with every shipped example scenario. The checked-in
// corpus under testdata/fuzz adds malformed and edge-case bodies.
func addExamples(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example scenarios found (%v)", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
}

// checkParser pins the invariants the serve tier's body alias relies on:
// a parse never panics; an accepted body's canonical form re-parses to
// itself (Marshal→Parse is a fixed point) under the same fingerprint; a
// rejected body is a classified domain error, which the replica and the
// gateway both answer with a 400.
func checkParser[T any](t *testing.T, body []byte, parse func([]byte) (T, error), fingerprint func(T) (string, error)) {
	sp, err := parse(body)
	if err != nil {
		if !errors.Is(err, robust.ErrDomain) {
			t.Fatalf("reject is not ErrDomain: %v", err)
		}
		return
	}
	canon, err := json.Marshal(sp)
	if err != nil {
		t.Fatalf("accepted spec does not marshal: %v", err)
	}
	again, err := parse(canon)
	if err != nil {
		t.Fatalf("canonical form rejected: %v\n%s", err, canon)
	}
	recanon, err := json.Marshal(again)
	if err != nil {
		t.Fatalf("re-parsed spec does not marshal: %v", err)
	}
	if !bytes.Equal(canon, recanon) {
		t.Fatalf("Marshal→Parse is not a fixed point:\n%s\n%s", canon, recanon)
	}
	fp1, err1 := fingerprint(sp)
	fp2, err2 := fingerprint(again)
	if err1 != nil || err2 != nil || fp1 != fp2 {
		t.Fatalf("fingerprint unstable: %s (%v) vs %s (%v)", fp1, err1, fp2, err2)
	}
}

func FuzzParseSpec(f *testing.F) {
	addExamples(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkParser(t, body, scenario.ParseSpec, serve.FingerprintSpec)
	})
}

func FuzzParseOptimizeSpec(f *testing.F) {
	addExamples(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkParser(t, body, scenario.ParseOptimizeSpec, serve.FingerprintOptimizeSpec)
	})
}
