// Command bench is the repository's one benchmark: five fixed-work
// workloads driven over real loopback TCP (plan_scale: direct calls) by one
// client on one core, window-median end-to-end metrics with the box's
// speed divided out by a reference process, median-of-5 cold set-up, and
// a traced run that attributes time to layers from outside them. See
// README.md.
//
//	go run . -workload serve_warm -seed 1 -seconds 20 -trace 0
//	go run . -workload all
//	go run . -selfcheck
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// nominalSeconds is the run length the workloads' op counts are sized
// for; BENCHMARK.json's run_seconds.
const nominalSeconds = 12

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// asReferenceChild runs the speed reference's child when the environment
// asks for it, and reports whether it did.
func asReferenceChild(stderr io.Writer) (code int, was bool) {
	mode := os.Getenv(refEnv)
	if mode == "" {
		return 0, false
	}
	runtime.GOMAXPROCS(1) // as the benchmark that started it
	if err := referenceChild(refMode(mode), os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1, true
	}
	return 0, true
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if code, was := asReferenceChild(stderr); was {
		return code
	}
	// One goroutine at a time: client, server and everything between them
	// take turns on one thread, which run.sh also pins to one core.
	runtime.GOMAXPROCS(1)
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name, or \"all\" for every workload measured and traced")
	seed := fs.Int64("seed", 1, "seed the op stream is generated from")
	seconds := fs.Int("seconds", nominalSeconds, "nominal run length; the op count is this times a per-workload constant")
	trace := fs.Int("trace", 0, "1 selects the traced run (per-layer metrics), 0 the measured run (end-to-end metrics)")
	selfcheck := fs.Bool("selfcheck", false, "run the suite twice in alternating order and compare the two sets within the bound")
	scratch := fs.String("scratch", ".bench_build", "directory for on-disk state and trace output, relative to the checkout")
	out := fs.String("out", "", "traced run: file the spans are written to as JSON lines (default under -scratch)")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json as derived from the benchmark's own tables and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || *seconds > 60 {
		fmt.Fprintf(stderr, "bench: -seconds %d outside [1, 60]\n", *seconds)
		return 2
	}
	if *printManifest {
		_, _ = stdout.Write(manifest())
		return 0
	}
	base := options{seed: *seed, seconds: *seconds, builds: coldBuilds, dir: *scratch, out: *out}

	if *selfcheck {
		return selfCheck(base, stdout, stderr)
	}
	if *name == "all" {
		return runAll(base, stdout, stderr)
	}
	spec := specByName(*name)
	if spec == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q; have", *name)
		for _, s := range specs {
			fmt.Fprintf(stderr, " %s", s.name)
		}
		fmt.Fprintln(stderr, ", all")
		return 2
	}
	o := base
	o.spec = spec
	run := runMeasured
	if *trace != 0 {
		run = runTraced
	}
	r, err := run(&o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	r.print(stdout)
	if r.Status != "ok" {
		fmt.Fprintf(stderr, "bench: %s: status %s %s\n", spec.name, r.Status, r.FirstErr)
	}
	fmt.Fprintln(stdout, r.contractLine())
	return 0
}

// runChild runs one workload in a process of its own — this binary again
// — the way the driver does, and returns its record. A run's peak memory
// and warm-up state then belong to that run alone, whatever ran before it.
func runChild(o *options, trace bool, stderr io.Writer) (*record, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", o.spec.name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds),
		"-scratch", o.dir,
		"-trace", "0",
	}
	if trace {
		args[len(args)-1] = "1"
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: child run: %w", o.spec.name, err)
	}
	// The record is the line before the contract line.
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return nil, fmt.Errorf("%s: child run printed %d lines", o.spec.name, len(lines))
	}
	var r record
	if err := json.Unmarshal(lines[len(lines)-2], &r); err != nil {
		return nil, fmt.Errorf("%s: child run's record: %w", o.spec.name, err)
	}
	return &r, nil
}

// runAll runs every workload measured then traced, each in its own
// process, and prints every metric by name with its unit.
func runAll(base options, stdout, stderr io.Writer) int {
	code := 0
	for _, spec := range specs {
		for _, trace := range []bool{false, true} {
			o := base
			o.spec = spec
			r, err := runChild(&o, trace, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				code = 1
				continue
			}
			r.print(stdout)
			if r.Status != "ok" {
				code = 1
			}
		}
	}
	return code
}

// selfCheck is the A/A test: the measured suite twice back to back, the
// second time in reverse workload order, every run in its own process, and
// every workload × end-to-end metric compared against that metric's
// regression bound. Two sets of runs of one commit that disagree by more than the
// bound mean the benchmark, not the code, is what moved.
func selfCheck(base options, stdout, stderr io.Writer) int {
	sets := make([]map[string]*record, 2)
	for pass := range sets {
		sets[pass] = map[string]*record{}
		for i := range specs {
			spec := specs[i]
			if pass == 1 {
				spec = specs[len(specs)-1-i]
			}
			o := base
			o.spec = spec
			r, err := runChild(&o, false, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			b, _ := json.Marshal(r)
			fmt.Fprintf(stdout, "%s\n", b)
			sets[pass][spec.name] = r
		}
	}
	fails := 0
	fmt.Fprintf(stdout, "%-12s %-12s %14s %14s %8s  %s\n", "workload", "metric", "first", "second", "diff", "verdict")
	for _, spec := range specs {
		a, b := sets[0][spec.name], sets[1][spec.name]
		for _, m := range endToEndUnits {
			va, vb := a.Metrics[m.name].Value, b.Metrics[m.name].Value
			diff := 0.0
			if va != 0 {
				diff = (vb - va) / va
			}
			verdict := "PASS"
			if math.Abs(diff) > endToEndBounds[m.name] {
				verdict = "FAIL"
				fails++
			}
			fmt.Fprintf(stdout, "%-12s %-12s %14.6g %14.6g %+7.2f%%  %s\n", spec.name, m.name, va, vb, 100*diff, verdict)
		}
		for _, r := range []*record{a, b} {
			if r.Status != "ok" {
				fmt.Fprintf(stdout, "%-12s status %s %s\n", spec.name, r.Status, r.FirstErr)
				fails++
			}
		}
	}
	if fails > 0 {
		fmt.Fprintf(stdout, "selfcheck: FAIL (%d)\n", fails)
		return 1
	}
	fmt.Fprintln(stdout, "selfcheck: PASS")
	return 0
}

// traceOut is where a traced run writes its spans when -out is unset.
func traceOut(o *options) string {
	if o.out != "" {
		return o.out
	}
	return filepath.Join(o.dir, fmt.Sprintf("trace-%s-%d.jsonl", o.spec.name, o.seed))
}
