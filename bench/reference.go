package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// This file is the speed reference: a fixed transaction made of the
// standard library only — no package of this repository — timed in a
// child process next to every window of a measured run, so that the speed
// of the box can be divided out of the run's timings.
//
// Why: the box's speed moves by a factor of up to two for seconds at a
// time (README.md, "The box"), every timing of a run moves with it, and no
// estimator inside the run can tell that from the system getting slower.
// The reference can: nothing in the repository can change what it
// executes, and in a process of its own it shares no heap, collector or
// scheduler with the system under test. The parent blocks while a slice
// runs, so the two never run at once, and the child inherits the parent's
// CPU affinity, so it times the core the system runs on.
//
// The transaction mirrors how the workload is driven, because the box's
// noise differs by resource (loopback TCP and system calls wander far more
// than user-space computation): one HTTP POST with a JSON body over a
// keep-alive loopback connection to a handler that decodes it, sorts,
// builds a map and encodes a JSON answer (refTCP, for the served
// workloads), or that handler called directly (refDirect, for plan_scale).

// refMode selects the reference transaction.
type refMode string

const (
	refTCP    refMode = "tcp"
	refDirect refMode = "direct"
)

// refEnv, when set to a refMode, turns the process into the reference
// child. An environment variable rather than a flag, so that a test
// binary can be the child too.
const refEnv = "RAQOBENCH_REFERENCE"

// A slice is refSliceOps transactions, about 8 ms on this box.
var refSliceOps = map[refMode]int{refTCP: 128, refDirect: 256}

// refNominalNS is the time of one transaction at the speed the reported
// values are normalised to: this box's median over the sweeps in
// README.md. Reported timings are the measured ones times nominal over
// measured reference, so at nominal speed they are physical units. The
// constants only fix that scale; they must not change, or every reported
// value changes with them.
var refNominalNS = map[refMode]float64{refTCP: 68000, refDirect: 40000}

type refRequest struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
	Tags   []string  `json:"tags"`
}

type refItem struct {
	Key   string  `json:"key"`
	Rank  int     `json:"rank"`
	Value float64 `json:"value"`
}

type refResponse struct {
	Name  string             `json:"name"`
	Items []refItem          `json:"items"`
	Index map[string]float64 `json:"index"`
	Sum   float64            `json:"sum"`
}

// refHandler is the reference transaction's server side.
func refHandler(w http.ResponseWriter, r *http.Request) {
	var req refRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil || len(req.Tags) == 0 {
		http.Error(w, "bad reference request", http.StatusBadRequest)
		return
	}
	vals := append([]float64(nil), req.Values...)
	sort.Float64s(vals)
	resp := refResponse{Name: req.Name, Index: make(map[string]float64, len(vals))}
	for i, v := range vals {
		key := req.Tags[i%len(req.Tags)] + strconv.Itoa(i)
		resp.Items = append(resp.Items, refItem{Key: key, Rank: i, Value: math.Sqrt(v) * 1.5})
		resp.Index[key] = v
		resp.Sum += v
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(&resp)
}

// refBody is the fixed request body: 24 values from a fixed xorshift.
func refBody() []byte {
	req := refRequest{Name: "reference", Tags: []string{"alpha", "beta", "gamma", "delta"}}
	x := uint64(88172645463325252)
	for i := 0; i < 24; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		req.Values = append(req.Values, float64(x%100000)/7)
	}
	b, err := json.Marshal(&req)
	if err != nil {
		panic(err) // literals only
	}
	return b
}

// discardWriter is the direct transaction's response writer.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(int)             {}

// referenceChild is the child's main: for every byte on stdin it runs one
// slice and prints the mean nanoseconds per transaction; it ends when
// stdin does, which is also what happens if the parent dies.
func referenceChild(mode refMode, stdin io.Reader, stdout io.Writer) error {
	n, ok := refSliceOps[mode]
	if !ok {
		return fmt.Errorf("reference: unknown mode %q", mode)
	}
	body := refBody()
	one := func() error {
		r, err := http.NewRequest("POST", "/ref", bytes.NewReader(body))
		if err != nil {
			return err
		}
		refHandler(&discardWriter{h: http.Header{}}, r)
		return nil
	}
	if mode == refTCP {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: http.HandlerFunc(refHandler)}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		w, err := dialWorker(ln.Addr().String())
		if err != nil {
			return err
		}
		defer w.close()
		req := httpReq("POST", "/ref", body)
		one = func() error {
			res, err := w.do(&op{req: req})
			if err == nil {
				err = checkOK(res)
			}
			return err
		}
	}
	in := bufio.NewReader(stdin)
	for {
		if _, err := in.ReadByte(); err != nil {
			return nil
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := one(); err != nil {
				return fmt.Errorf("reference: %w", err)
			}
		}
		if _, err := fmt.Fprintf(stdout, "%d\n", int64(time.Since(t0))/int64(n)); err != nil {
			return err
		}
	}
}

// speedRef is the parent's handle on the child.
type speedRef struct {
	mode refMode
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
}

// startSpeedRef starts the child (this binary again) and runs a few
// slices so its caches and pools are warm before the first one counts.
func startSpeedRef(mode refMode) (*speedRef, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), refEnv+"="+string(mode))
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
	r := &speedRef{mode: mode, cmd: cmd, in: in, out: bufio.NewReader(out)}
	for i := 0; i < 5; i++ {
		if _, err := r.slowness(); err != nil {
			r.stop()
			return nil, err
		}
	}
	return r, nil
}

// slowness runs one slice and returns how slow the box is right now:
// measured time per transaction over nominal, 1 at nominal speed.
func (r *speedRef) slowness() (float64, error) {
	if _, err := r.in.Write([]byte{1}); err != nil {
		return 0, fmt.Errorf("reference: %w", err)
	}
	line, err := r.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("reference: child ended: %w", err)
	}
	ns, err := strconv.ParseInt(line[:len(line)-1], 10, 64)
	if err != nil || ns <= 0 {
		return 0, errors.New("reference: bad slice time " + strconv.Quote(line))
	}
	return float64(ns) / refNominalNS[r.mode], nil
}

// stop ends the child and waits for it.
func (r *speedRef) stop() {
	_ = r.in.Close()
	_ = r.cmd.Wait()
}
