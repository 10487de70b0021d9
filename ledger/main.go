// Command ledger is the repository's benchmark: one process that drives a
// seeded workload through the bandwidth-wall stack — the Mattson profiler,
// the multi-wall solver, the scenario engine and optimizer, the serve
// replica and the fleet gateway — checks every output against an oracle,
// and prints the run's metrics by name and unit.
//
//	bash ledger/run.sh --workload eval-hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with no timing
// wrappers installed. With --trace 1 it times calls into each layer's
// public functions from outside and prints the per-layer ledger, with
// the stage costs summed against client latency. See README.md beside
// this file for the workloads and the metric-to-workload predictions.
//
// Every record line carries a host stamp; the last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload to run: eval-hot, fleet-mixed or profile")
	seed := flag.Uint64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", 10, "measured window in seconds")
	traced := flag.Int("trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	repo := flag.String("repo", "..", "repository root (for examples/scenarios)")
	reference := flag.Bool("reference", false, "run as the reference child, driven over stdin")
	flag.Parse()
	if *reference {
		if err := runReference(); err != nil {
			fmt.Fprintln(os.Stderr, "ledger:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*workload, *seed, *seconds, *traced == 1, *repo); err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
}

func run(w string, seed uint64, seconds int, traced bool, repo string) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	d := time.Duration(seconds) * time.Second
	ctx := context.Background()
	stamp := hostStamp(repo, seed)
	var l *ledger
	var err error
	if traced {
		l, err = tracedRun(ctx, w, seed, repo, d)
	} else {
		l, err = endToEnd(ctx, w, seed, repo, d)
	}
	if err != nil {
		return err
	}
	l.Host = stamp
	return l.print(os.Stdout)
}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ledger is one run's record.
type ledger struct {
	Record   string            `json:"record"`
	Workload string            `json:"workload"`
	Host     stamp             `json:"host"`
	Metrics  map[string]metric `json:"metrics"`
	Notes    map[string]any    `json:"notes"`

	accounting []string
	attempted  int
	failed     int
	errs       []string
}

func newLedger(w, mode string) *ledger {
	return &ledger{Record: mode, Workload: w, Metrics: map[string]metric{}, Notes: map[string]any{}}
}

func (l *ledger) put(name string, v float64, unit string) { l.Metrics[name] = metric{v, unit} }
func (l *ledger) note(name string, v any)                 { l.Notes[name] = v }

// print writes the stamped record line, any accounting lines, and the
// result object as the last line.
func (l *ledger) print(out *os.File) error {
	l.note("error_share", ratio(float64(l.failed), float64(l.attempted)))
	if len(l.errs) > 0 {
		l.note("first_errors", l.errs)
	}
	rec, err := json.Marshal(l)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", rec)
	for _, line := range l.accounting {
		fmt.Fprintln(out, line)
	}
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{l.failed == 0 && l.attempted > 0, l.attempted, l.failed, l.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", res)
	return err
}
