package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// provenance is what every result record carries so a number can be
// traced back to the code and the box that produced it.
type provenance struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
}

func newProvenance() provenance {
	return provenance{
		Commit:     commitID(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// commitID finds the commit the benchmark was built from: $BENCH_COMMIT
// if set (a driver checkout is not a git repository), else the VCS stamp
// `go build` leaves in a binary built inside one, else "unknown".
func commitID() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// loadAverage is the first three fields of /proc/loadavg, "" if unreadable.
func loadAverage() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return ""
	}
	return strings.Join(f[:3], " ")
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
