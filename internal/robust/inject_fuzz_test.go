package robust

import (
	"strconv"
	"strings"
	"testing"
)

// canonicalDirective spells d in the grammar's canonical
// point[@scope]=action[:arg] xN form.
func canonicalDirective(d *Directive) string {
	var b strings.Builder
	b.WriteString(d.Point)
	if d.Scope != "" {
		b.WriteString("@" + d.Scope)
	}
	b.WriteString("=" + d.Action)
	if d.Action == "sleep" {
		b.WriteString(":" + d.Sleep.String())
	}
	if d.Count < 0 {
		b.WriteString(" x*")
	} else {
		b.WriteString(" x" + strconv.FormatInt(d.Count, 10))
	}
	return b.String()
}

// FuzzParsePlan fuzzes the BANDWALL_FAULTS grammar, which reaches the
// process from its environment. ParsePlan must never panic; a rejected
// plan carries a "robust: " error; an accepted plan holds only
// well-formed directives, and re-spelling them canonically parses back to
// the same directives.
func FuzzParsePlan(f *testing.F) {
	for _, seed := range []string{
		"",
		"all",
		"scaling.solve@fig04=panic, exp.trace@fig01=corrupt; exp.run@fig02=noconverge x2, exp.run=sleep:50ms x*",
		"scaling.solve@fig04=panic,exp.trace@fig01=corrupt,exp.run@fig02=noconverge",
		"serve.eval=panic x*",
		"exp.run@fig15=sleep:30s x*",
		"pt@fig02=noconverge",
		"pt=panic",
		"pt=sleep:30s",
		"fleet.dial@127.0.0.1:18121=transient x3",
		"a@b@c=domain x+5",
		"nodirective",
		"p=unknownaction",
		"p=sleep:notaduration",
		"p=panic:arg",
		"=panic",
		"p=panic x0",
		"p=panic xz",
		"exp.run@ fig02=panic",
		"exp.run @fig02=panic",
		"a@b@c=domain",
		"exp.run@=panic",
		"p=panic x+5",
		"fleet.dial@http://127.0.0.1:8082=transient",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "robust: ") {
				t.Fatalf("ParsePlan(%q) error %q lacks the robust: prefix", spec, err)
			}
			return
		}
		if p.Matrix && len(p.Dirs) > 0 {
			t.Fatalf("ParsePlan(%q): matrix sentinel with %d directives", spec, len(p.Dirs))
		}
		canon := make([]string, len(p.Dirs))
		for i, d := range p.Dirs {
			switch {
			case d.Point == "":
				t.Fatalf("ParsePlan(%q): directive %d has an empty point", spec, i)
			case !actions[d.Action]:
				t.Fatalf("ParsePlan(%q): directive %d has unknown action %q", spec, i, d.Action)
			case d.Count != -1 && d.Count < 1:
				t.Fatalf("ParsePlan(%q): directive %d has count %d", spec, i, d.Count)
			case d.Sleep < 0, d.Sleep != 0 && d.Action != "sleep":
				t.Fatalf("ParsePlan(%q): directive %d (%s) has sleep %v", spec, i, d.Action, d.Sleep)
			}
			canon[i] = canonicalDirective(d)
		}
		joined := strings.Join(canon, ",")
		q, err := ParsePlan(joined)
		if err != nil {
			t.Fatalf("canonical %q of %q does not re-parse: %v", joined, spec, err)
		}
		if len(q.Dirs) != len(p.Dirs) {
			t.Fatalf("canonical %q of %q re-parses to %d directives, want %d", joined, spec, len(q.Dirs), len(p.Dirs))
		}
		for i, d := range p.Dirs {
			e := q.Dirs[i]
			if d.Point != e.Point || d.Scope != e.Scope || d.Action != e.Action || d.Sleep != e.Sleep || d.Count != e.Count {
				t.Fatalf("canonical %q of %q: directive %d re-parses to %+v, want %+v",
					joined, spec, i, e, d)
			}
		}
	})
}
