package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"

	"repro/internal/cachesim"
	"repro/internal/optimize"
	"repro/internal/scaling"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// The oracles answer every generated body directly, through a zero-value
// scenario.Engine or optimize.Optimizer (a private solver cache per call),
// so no state of the server under test can leak into the expected answer.
// A response is compared on what it asserts about the model — values,
// points, best design, frontier — not on its rendered report text.

// evalView is the part of an eval response an oracle checks.
type evalView struct {
	Values map[string]float64 `json:"values,omitempty"`
	Points []pointView        `json:"points"`
}

type pointView struct {
	Ratio   float64                `json:"ratio"`
	N2      float64                `json:"n2"`
	Cores   int                    `json:"cores"`
	Exact   float64                `json:"exact"`
	Binding string                 `json:"binding,omitempty"`
	Walls   []scaling.WallHeadroom `json:"walls,omitempty"`
}

// optimizeView is the part of an optimize response an oracle checks.
type optimizeView struct {
	Objective  string                 `json:"objective"`
	Best       optimize.DesignPoint   `json:"best"`
	Frontier   []optimize.DesignPoint `json:"frontier"`
	Stacks     int                    `json:"stacks"`
	Candidates int                    `json:"candidates"`
}

// expectation is what one body must produce: the canonical view bytes of
// a 200 response, or a 400 when the oracle itself rejects the body.
type expectation struct {
	view   []byte
	reject bool
}

// oracle computes the expectation for a body sent to path.
func oracle(ctx context.Context, path string, body []byte) (expectation, error) {
	if path == "/v1/optimize" {
		osp, err := scenario.ParseOptimizeSpec(body)
		if err != nil {
			return expectation{reject: true}, nil
		}
		res, err := (&optimize.Optimizer{}).Search(ctx, osp)
		if err != nil {
			return expectation{}, fmt.Errorf("oracle search %s: %w", osp.ID, err)
		}
		v, err := json.Marshal(optimizeView{res.Objective, res.Best, res.Frontier, res.Stacks, res.Candidates})
		return expectation{view: v}, err
	}
	sp, err := scenario.ParseSpec(body)
	if err != nil {
		return expectation{reject: true}, nil
	}
	o, err := (&scenario.Engine{}).Evaluate(ctx, sp)
	if err != nil {
		return expectation{}, fmt.Errorf("oracle eval %s: %w", sp.ID, err)
	}
	view := evalView{Values: o.Values, Points: make([]pointView, len(o.Points))}
	for i, pt := range o.Points {
		view.Points[i] = pointView{pt.Gen.Ratio, pt.Gen.N, pt.Cores, pt.Exact, pt.Binding, pt.Walls}
	}
	v, err := json.Marshal(view)
	return expectation{view: v}, err
}

// responseView projects a 200 response body onto the oracle's view.
func responseView(path string, resp []byte) ([]byte, error) {
	if path == "/v1/optimize" {
		var r serve.OptimizeResponse
		if err := json.Unmarshal(resp, &r); err != nil {
			return nil, err
		}
		return json.Marshal(optimizeView{r.Objective, r.Best, r.Frontier, r.Stacks, r.Candidates})
	}
	var r serve.EvalResponse
	if err := json.Unmarshal(resp, &r); err != nil {
		return nil, err
	}
	view := evalView{Values: r.Values, Points: make([]pointView, len(r.Points))}
	for i, pt := range r.Points {
		view.Points[i] = pointView{pt.Ratio, pt.N2, pt.Cores, pt.Exact, pt.BindingWall, pt.Walls}
	}
	return json.Marshal(view)
}

// check compares one response with its expectation. Rejects must be a 400
// with kind "domain" or "bad_request"; everything else a 200 whose view
// matches the oracle bit for bit.
func check(want expectation, path string, status int, resp []byte) error {
	if want.reject {
		if status != http.StatusBadRequest {
			return fmt.Errorf("malformed body got status %d, want 400", status)
		}
		var e struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(resp, &e); err != nil {
			return fmt.Errorf("400 body: %w", err)
		}
		if e.Kind != "domain" && e.Kind != "bad_request" {
			return fmt.Errorf("400 kind %q, want domain or bad_request", e.Kind)
		}
		return nil
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, resp)
	}
	got, err := responseView(path, resp)
	if err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if !bytes.Equal(got, want.view) {
		return fmt.Errorf("response disagrees with the oracle:\n got %.300s\nwant %.300s", got, want.view)
	}
	return nil
}

// sameCurve reports whether a profiled miss curve is bit-identical to the
// brute-force reference.
func sameCurve(got, want []cachesim.CurvePoint) bool {
	return reflect.DeepEqual(got, want)
}
