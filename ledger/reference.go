package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"
)

// The reference is a fixed stand-in for a replica, built from the
// standard library alone: a JSON handler that parses the body,
// fingerprints it and writes a reply, loaded over loopback by the same
// closed-loop client. It runs in a child process, so nothing the program
// does to its own heap, goroutines or runtime settings reaches it, and it
// runs in slices that alternate with the workload's, so both see the host
// in the same state. The end-to-end time metrics divide the workload's
// figures by the reference's: a host that runs everything 2.5x slower
// moves both, while a change to the program moves only the workload.

// refSlice is one reference slice as the child measured it.
type refSlice struct {
	Ops     int       `json:"ops"`
	Seconds float64   `json:"seconds"`
	CPUUS   float64   `json:"cpu_us"`
	LatMS   []float64 `json:"lat_ms"`
}

func (s refSlice) rate() float64     { return ratio(float64(s.Ops), s.Seconds) }
func (s refSlice) cpuPerOp() float64 { return ratio(s.CPUUS, float64(s.Ops)) }

// refDoc is the reference request body: fixed, about the size of an
// example scenario spec.
func refDoc() []byte {
	cases := make([]any, 0, 8)
	for i := 0; i < 8; i++ {
		cases = append(cases, map[string]any{
			"name":       fmt.Sprintf("stack-%d", i),
			"techniques": []any{"cc", "lc", "dram"}[:1+i%3],
			"params":     map[string]any{"ratio": 1.25 + float64(i)/8, "area": 0.5 * float64(i+1)},
			"budget":     1 + float64(i)/4,
		})
	}
	b, err := json.Marshal(map[string]any{"id": "reference", "n2": 32, "alpha": 0.5, "generations": 4, "cases": cases})
	if err != nil {
		panic(err)
	}
	return b
}

// refHandler parses the body, fingerprints its canonical form and writes
// an indented reply that echoes it twice.
func refHandler(w http.ResponseWriter, r *http.Request) {
	b, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	canon, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	sum := sha256.Sum256(canon)
	out, err := json.MarshalIndent(map[string]any{"fingerprint": hex.EncodeToString(sum[:]), "spec": v, "report": v}, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(out)
}

// refServe serves h on a fresh loopback listener until the returned stop
// is called.
func refServe(h http.Handler) (string, func(), error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(l) // returns http.ErrServerClosed after Close
	}()
	return "http://" + l.Addr().String(), func() { srv.Close(); <-done }, nil
}

// runReference is the child process: it starts the reference server,
// then for each duration (in nanoseconds) read from stdin drives the
// closed loop for that long and writes the slice as one JSON line. It
// returns at EOF.
func runReference() error {
	front, stop, err := refServe(http.HandlerFunc(refHandler))
	if err != nil {
		return err
	}
	defer stop()
	client := newClient()
	defer client.CloseIdleConnections()
	body := refDoc()
	var next atomic.Uint64
	in := bufio.NewScanner(os.Stdin)
	out := json.NewEncoder(os.Stdout)
	for in.Scan() {
		var ns int64
		if _, err := fmt.Sscan(in.Text(), &ns); err != nil {
			return fmt.Errorf("reference: bad slice length %q", in.Text())
		}
		lat := make([][]float64, conns)
		var failed atomic.Int64
		cpu0 := cpuTime()
		elapsed := runLoop(conns, time.Duration(ns), 0, &next, nil, func(c int) func(uint64, tracing) {
			var buf bytes.Buffer
			return func(uint64, tracing) {
				rp, err := post(client, front, body, &buf)
				if err != nil || rp.status != http.StatusOK {
					failed.Add(1)
					return
				}
				lat[c] = append(lat[c], rp.latencyMS)
			}
		})
		if n := failed.Load(); n > 0 {
			return fmt.Errorf("reference: %d requests failed", n)
		}
		s := refSlice{Seconds: elapsed.Seconds(), CPUUS: us(cpuTime() - cpu0)}
		for _, l := range lat {
			s.LatMS = append(s.LatMS, l...)
		}
		s.Ops = len(s.LatMS)
		if err := out.Encode(s); err != nil {
			return err
		}
	}
	return in.Err()
}

// refProc is the parent's handle on the reference child. The child reads
// its slices from a pipe, so it ends when the parent closes the pipe or
// exits.
type refProc struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
	once sync.Once
	err  error
}

// startRef starts the reference child.
func startRef() (*refProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-reference")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &refProc{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// slice runs the reference for d and returns what it measured.
func (r *refProc) slice(d time.Duration) (refSlice, error) {
	var s refSlice
	if _, err := fmt.Fprintf(r.in, "%d\n", d.Nanoseconds()); err != nil {
		return s, fmt.Errorf("reference: %w", err)
	}
	line, err := r.out.ReadBytes('\n')
	if err != nil {
		return s, fmt.Errorf("reference: %w", err)
	}
	if err := json.Unmarshal(line, &s); err != nil {
		return s, fmt.Errorf("reference: %w", err)
	}
	if s.Ops == 0 {
		return s, fmt.Errorf("reference: a %v slice completed no requests", d)
	}
	return s, nil
}

// close ends the child and waits for it.
func (r *refProc) close() error {
	r.once.Do(func() {
		r.in.Close()
		r.err = r.cmd.Wait()
	})
	return r.err
}
