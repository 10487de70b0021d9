package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/mattson"
	"repro/internal/scenario"
	"repro/internal/technique"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Request classes. The fleet-mixed mix draws every op from these with the
// target shares in mixShares; eval-hot sends only hits.
const (
	classHit      = "hit"      // a repeat of a body the server has answered before
	classMiss     = "miss"     // a fresh eval spec: response cache and solver memo both miss
	classOptimize = "optimize" // a fresh /v1/optimize spec
	classReject   = "reject"   // a malformed or out-of-range body: must get a 400
)

// mixShares are the fleet-mixed target shares, in draw order.
var mixShares = []struct {
	class string
	share float64
}{{classHit, 0.50}, {classMiss, 0.35}, {classOptimize, 0.10}, {classReject, 0.05}}

const (
	hotSetSize      = 256 // fleet-mixed repeats draw from this many bodies
	evalHotPoolSize = 64  // eval-hot spelling variants
	rejectPoolSize  = 64  // malformed bodies, drawn at random
)

// Generator streams. Each generated family draws from its own PCG stream,
// so adding ops to one family never shifts the bodies of another.
const (
	streamMix uint64 = iota + 1
	streamHot
	streamVariant
	streamReject
)

// rng returns the deterministic generator for item i of a stream.
func rng(seed, stream, i uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream<<48^i))
}

// request is one generated HTTP op.
type request struct {
	class string
	path  string
	body  []byte
	hot   int // index of the expected response among the hot bodies, -1 for none
}

// uniform draws from [lo, hi), rounded to four decimals so bodies stay
// short while every draw is still effectively distinct.
func uniform(r *rand.Rand, lo, hi float64) float64 {
	return math.Round((lo+(hi-lo)*r.Float64())*1e4) / 1e4
}

// family is one technique family the generators draw from, with a
// parameter range inside the registry's domain.
type family struct {
	name, key string
	lo, hi    float64
}

var families = []family{
	{"CC", "ratio", 1.1, 3.5},
	{"LC", "ratio", 1.1, 3.5},
	{"CC/LC", "ratio", 1.1, 3.5},
	{"DRAM", "density", 2, 16},
	{"3D", "density", 1, 8},
	{"Fltr", "unused", 0.05, 0.8},
	{"Sect", "unused", 0.05, 0.8},
	{"SmCl", "unused", 0.05, 0.8},
	{"SmCo", "shrink", 2, 40},
}

// randomStack draws k distinct families (CC/LC never beside CC or LC)
// with continuous parameters.
func randomStack(r *rand.Rand, k int) []technique.Spec {
	used := map[string]bool{}
	var out []technique.Spec
	for _, i := range r.Perm(len(families)) {
		if len(out) == k {
			break
		}
		f := families[i]
		compression := f.name == "CC" || f.name == "LC" || f.name == "CC/LC"
		if compression && (used["CC/LC"] || (f.name == "CC/LC" && (used["CC"] || used["LC"]))) {
			continue
		}
		used[f.name] = true
		out = append(out, technique.Spec{Name: f.name, Params: map[string]float64{f.key: uniform(r, f.lo, f.hi)}})
	}
	return out
}

// randomWalls draws the constraint set: usually a single bandwidth budget,
// sometimes a thermal or energy wall beside it.
func randomWalls(r *rand.Rand) (scenario.Budget, []scenario.Envelope) {
	bw := scenario.Envelope{Kind: "bandwidth", Limit: uniform(r, 1, 2)}
	switch u := r.Float64(); {
	case u < 0.2:
		return scenario.Budget{}, []scenario.Envelope{bw,
			{Kind: "thermal", Limit: uniform(r, 3, 5), Growth: uniform(r, 1, 1.3)}}
	case u < 0.35:
		return scenario.Budget{}, []scenario.Envelope{bw, {Kind: "energy", Limit: uniform(r, 1.1, 2)}}
	default:
		return scenario.Budget{Envelope: bw.Limit, Compound: r.IntN(2) == 0}, nil
	}
}

// freshEvalSpec draws one eval spec: 1–3 cases of random stacks over 1–4
// generations.
func freshEvalSpec(r *rand.Rand, id string) scenario.Spec {
	sp := scenario.Spec{ID: id, Axis: scenario.Axis{Generations: 1 + r.IntN(4)}}
	sp.Budget, sp.Envelopes = randomWalls(r)
	if r.IntN(4) == 0 {
		sp.Alpha = uniform(r, 0.3, 0.7)
	}
	for c := 0; c < 1+r.IntN(3); c++ {
		sp.Cases = append(sp.Cases, scenario.Case{
			Label:    fmt.Sprintf("case %d", c),
			Stack:    randomStack(r, 1+r.IntN(3)),
			ValueKey: fmt.Sprintf("c%d", c),
		})
	}
	return sp
}

// freshOptimizeSpec draws one optimize spec with a catalog of 3–6 entries.
func freshOptimizeSpec(r *rand.Rand, id string) scenario.OptimizeSpec {
	osp := scenario.OptimizeSpec{ID: id, N2: uniform(r, 16, 64), Objective: scenario.ObjectiveCores}
	if r.IntN(2) == 0 {
		osp.Objective = scenario.ObjectiveExact
	}
	osp.Budget, osp.Envelopes = randomWalls(r)
	for _, t := range randomStack(r, 3+r.IntN(4)) {
		osp.Catalog = append(osp.Catalog, scenario.CatalogEntry{Name: t.Name, Params: t.Params, Cost: uniform(r, 0.5, 6)})
	}
	osp.MaxTechniques = r.IntN(4)
	osp.Split = scenario.SplitRange{Min: uniform(r, 0.25, 1), Max: uniform(r, 2, 4), Points: 4 + r.IntN(5)}
	return osp
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the generators only build marshalable specs
	}
	return b
}

// hotSet returns the fleet-mixed hot set: hotSetSize fresh-style eval
// bodies from their own stream.
func hotSet(seed uint64) [][]byte {
	out := make([][]byte, hotSetSize)
	for j := range out {
		sp := freshEvalSpec(rng(seed, streamHot, uint64(j)), fmt.Sprintf("hot-%d", j))
		out[j] = mustJSON(sp)
	}
	return out
}

// rejectPool returns malformed or out-of-range bodies, each paired with
// the route it is sent to. Every one must fail its route's parser.
func rejectPool(seed uint64) []request {
	out := make([]request, rejectPoolSize)
	for j := range out {
		r := rng(seed, streamReject, uint64(j))
		out[j] = malformed(r, j)
	}
	return out
}

// malformed builds reject number j from a rotating set of templates.
func malformed(r *rand.Rand, j int) request {
	sp := freshEvalSpec(r, fmt.Sprintf("bad-%d", j))
	osp := freshOptimizeSpec(r, fmt.Sprintf("bad-%d", j))
	eval := func(b []byte) request { return request{class: classReject, path: "/v1/eval", body: b, hot: -1} }
	opt := func(b []byte) request { return request{class: classReject, path: "/v1/optimize", body: b, hot: -1} }
	switch j % 12 {
	case 0: // truncated JSON
		b := mustJSON(sp)
		return eval(b[:1+r.IntN(len(b)-2)])
	case 1: // unknown field
		return eval(append([]byte(`{"bogus_field":1,`), mustJSON(sp)[1:]...))
	case 2: // out-of-range parameter
		sp.Cases[0].Stack = []technique.Spec{{Name: "CC", Params: map[string]float64{"ratio": uniform(r, 0.1, 0.9)}}}
		return eval(mustJSON(sp))
	case 3: // unknown technique
		sp.Cases[0].Stack = []technique.Spec{{Name: "Warp", Params: map[string]float64{"ratio": 2}}}
		return eval(mustJSON(sp))
	case 4: // misspelled wall kind
		sp.Budget, sp.Envelopes = scenario.Budget{}, []scenario.Envelope{{Kind: "bandwidth", Limit: 1}, {Kind: "termal", Limit: 3}}
		return eval(mustJSON(sp))
	case 5: // trailing data
		return eval(append(mustJSON(sp), []byte(" {}")...))
	case 6: // two axis kinds
		sp.Axis.N2 = []float64{uniform(r, 16, 64)}
		return eval(mustJSON(sp))
	case 7: // wrong type
		return eval([]byte(fmt.Sprintf(`{"id":%d,"axis":{"generations":2},"cases":[{}]}`, j)))
	case 8: // empty body
		return eval(nil)
	case 9: // non-positive chip area
		osp.N2 = -uniform(r, 1, 64)
		return opt(mustJSON(osp))
	case 10: // catalog beyond the enumeration bound
		for len(osp.Catalog) <= scenario.MaxCatalog {
			osp.Catalog = append(osp.Catalog, osp.Catalog[0])
		}
		return opt(mustJSON(osp))
	default: // split grid beyond its bound
		osp.Split.Points = scenario.MaxSplitPoints + 1 + r.IntN(64)
		return opt(mustJSON(osp))
	}
}

// mixRequest returns fleet-mixed op i. Repeats and rejects come from the
// pre-built pools; fresh bodies are generated from the op's own stream,
// so op i is the same body on every run with the same seed.
func mixRequest(seed, i uint64, hot [][]byte, rejects []request) request {
	r := rng(seed, streamMix, i)
	u, class := r.Float64(), classReject
	for _, m := range mixShares {
		if u < m.share {
			class = m.class
			break
		}
		u -= m.share
	}
	switch class {
	case classHit:
		j := r.IntN(len(hot))
		return request{class: classHit, path: "/v1/eval", body: hot[j], hot: j}
	case classMiss:
		sp := freshEvalSpec(r, fmt.Sprintf("miss-%d", i))
		return request{class: classMiss, path: "/v1/eval", body: mustJSON(sp), hot: -1}
	case classOptimize:
		osp := freshOptimizeSpec(r, fmt.Sprintf("opt-%d", i))
		return request{class: classOptimize, path: "/v1/optimize", body: mustJSON(osp), hot: -1}
	default:
		return rejects[r.IntN(len(rejects))]
	}
}

// evalExamples reads the eval specs shipped in examples/scenarios.
func evalExamples(repo string) ([][]byte, error) {
	return exampleSpecs(repo, func(b []byte) error { _, err := scenario.ParseSpec(b); return err })
}

// optimizeExamples reads the optimize specs shipped in examples/scenarios.
func optimizeExamples(repo string) ([][]byte, error) {
	return exampleSpecs(repo, func(b []byte) error { _, err := scenario.ParseOptimizeSpec(b); return err })
}

// exampleSpecs reads the files in examples/scenarios that parse, in
// file-name order.
func exampleSpecs(repo string, parse func([]byte) error) ([][]byte, error) {
	dir := filepath.Join(repo, "examples", "scenarios")
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out [][]byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		if parse(b) == nil {
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no matching specs under %s", dir)
	}
	return out, nil
}

// evalHotPool returns evalHotPoolSize spelling variants of the examples,
// rotating through them.
func evalHotPool(seed uint64, examples [][]byte) ([][]byte, error) {
	out := make([][]byte, evalHotPoolSize)
	for j := range out {
		v, err := spellingVariant(examples[j%len(examples)], rng(seed, streamVariant, uint64(j)))
		if err != nil {
			return nil, err
		}
		out[j] = v
	}
	return out, nil
}

// spellingVariant re-spells one spec without changing what it asks:
// shuffled key order, another whitespace style, the bandwidth budget
// written as a one-wall envelopes list (or the implicit unit budget made
// explicit), and wall kinds in another letter case.
func spellingVariant(src []byte, r *rand.Rand) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(src))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("spec is not a JSON object")
	}
	kind := func() string { return [...]string{"bandwidth", "Bandwidth", "BANDWIDTH"}[r.IntN(3)] }
	switch {
	case m["budget"] != nil:
		if b, ok := m["budget"].(map[string]any); ok && r.IntN(2) == 0 {
			env := map[string]any{"kind": kind()}
			if x, ok := b["envelope"]; ok {
				env["limit"] = x
			}
			if c, ok := b["compound"]; ok {
				env["compound"] = c
			}
			delete(m, "budget")
			m["envelopes"] = []any{env}
		}
	case m["envelopes"] != nil:
		envs, _ := m["envelopes"].([]any)
		for _, e := range envs {
			if em, ok := e.(map[string]any); ok && r.IntN(2) == 0 {
				if k, ok := em["kind"].(string); ok {
					em["kind"] = strings.ToUpper(k[:1]) + k[1:]
				}
			}
		}
	default:
		switch r.IntN(3) {
		case 1:
			m["budget"] = map[string]any{"envelope": json.Number("1")}
		case 2:
			m["envelopes"] = []any{map[string]any{"kind": kind(), "limit": json.Number("1")}}
		}
	}
	st := styles[r.IntN(len(styles))]
	var buf bytes.Buffer
	encodeShuffled(&buf, m, r, st, 0)
	return buf.Bytes(), nil
}

// style is one JSON whitespace convention.
type style struct {
	indent, colon, comma string
}

var styles = []style{
	{"", ":", ","},
	{"  ", ": ", ","},
	{"\t", ": ", ","},
	{"", " : ", " , "},
	{"    ", ":", ", "},
}

func (st style) newline(buf *bytes.Buffer, depth int) {
	if st.indent != "" {
		buf.WriteByte('\n')
		buf.WriteString(strings.Repeat(st.indent, depth))
	}
}

// encodeShuffled writes v as JSON with object keys in a random order.
func encodeShuffled(buf *bytes.Buffer, v any, r *rand.Rand, st style, depth int) {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		r.Shuffle(len(keys), func(a, b int) { keys[a], keys[b] = keys[b], keys[a] })
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteString(st.comma)
			}
			st.newline(buf, depth+1)
			buf.Write(mustJSON(k))
			buf.WriteString(st.colon)
			encodeShuffled(buf, x[k], r, st, depth+1)
		}
		if len(keys) > 0 {
			st.newline(buf, depth)
		}
		buf.WriteByte('}')
	case []any:
		buf.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				buf.WriteString(st.comma)
			}
			st.newline(buf, depth+1)
			encodeShuffled(buf, e, r, st, depth+1)
		}
		if len(x) > 0 {
			st.newline(buf, depth)
		}
		buf.WriteByte(']')
	case json.Number:
		buf.WriteString(string(x))
	default: // strings, booleans, null
		buf.Write(mustJSON(x))
	}
}

// profileTrace materializes the profile workload's access trace: the
// quick Fig 1 stack-distance mix, seeded by the benchmark seed.
func profileTrace(seed uint64) ([]trace.Access, error) {
	bc := mattson.QuickFig1Bench()
	g, err := workload.NewStackDistance(workload.StackDistanceConfig{
		Alpha:          0.5,
		HotLines:       256,
		FootprintLines: 1 << 17,
		WriteFraction:  0.3,
		WritesPerLine:  true,
		Seed:           int64(seed),
	})
	if err != nil {
		return nil, err
	}
	return trace.Collect(g, bc.Accesses), nil
}
