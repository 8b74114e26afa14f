// Package harness builds the `raqo` binary and supervises real `raqo
// serve` processes on localhost: one plain service, or N fleet nodes wired
// together with static -node-id/-peers membership. It is the one way the
// process tests in cmd/raqo drive the binary, for what in-process tests
// cannot reach: the ready line, the SIGTERM drain and exit status, a
// SIGKILL and a restart on the same files, and real TCP between processes.
//
// The address chicken-and-egg (every node must know the full membership
// before any node has bound a port) is resolved the same way a static
// deployment would: ports are reserved up front by binding ephemeral
// listeners, recording their addresses, and releasing them just before the
// processes launch.
package harness

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// readyPrefix is the line `raqo serve` prints once its listener is bound.
const readyPrefix = "raqo serve: listening on "

// readyTimeout bounds the wait for a node's ready line, drainTimeout the
// wait for its exit after SIGTERM.
const (
	readyTimeout = 30 * time.Second
	drainTimeout = 10 * time.Second
)

// Build compiles the raqo CLI into dir and returns the binary path. The
// module package path (rather than a relative one) keeps the build working
// from any working directory inside the module.
func Build(dir string) (string, error) {
	bin := filepath.Join(dir, "raqo")
	cmd := exec.Command(goTool(), "build", "-o", bin, "raqo/cmd/raqo")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("harness: build raqo: %v\n%s", err, out)
	}
	return bin, nil
}

func goTool() string {
	if g := os.Getenv("GO"); g != "" {
		return g
	}
	return "go"
}

// Options configures a launch.
type Options struct {
	// Nodes is the number of processes; at least 1.
	Nodes int
	// Dir holds the binary and the per-node logs; required.
	Dir string
	// Args is appended to every node's `serve` argument list, after the
	// harness-owned -addr flag and, when Nodes > 1, -node-id/-peers. A
	// single node runs a plain service; pass -node-id here for a fleet of
	// one.
	Args []string
	// NodeArgs, when set, appends per-node arguments (e.g. a per-node
	// journal path).
	NodeArgs func(i int) []string
}

// Node is one supervised `raqo serve` process.
type Node struct {
	// Addr is the node's fixed host:port: its listen address and, in a
	// fleet, its node ID.
	Addr    string
	logPath string
	args    []string
	bin     string

	cmd  *exec.Cmd
	done chan error // receives cmd.Wait's result; nil when not running
}

// Fleet is a running set of raqo serve processes.
type Fleet struct {
	// Bin is the binary every node runs.
	Bin string

	nodes []*Node
}

// Start builds the binary into opts.Dir and launches opts.Nodes processes,
// returning once every one has printed its ready line. On error, any
// processes already started are killed.
func Start(opts Options) (*Fleet, error) {
	if opts.Nodes < 1 {
		return nil, fmt.Errorf("harness: need at least 1 node, got %d", opts.Nodes)
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("harness: no directory for the binary and logs")
	}
	bin, err := Build(opts.Dir)
	if err != nil {
		return nil, err
	}
	addrs, err := reservePorts(opts.Nodes)
	if err != nil {
		return nil, err
	}
	f := &Fleet{Bin: bin}
	for i := 0; i < opts.Nodes; i++ {
		peers := make([]string, 0, opts.Nodes-1)
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		args := []string{"serve", "-addr", addrs[i]}
		if len(peers) > 0 {
			args = append(args, "-node-id", addrs[i], "-peers", strings.Join(peers, ","))
		}
		args = append(args, opts.Args...)
		if opts.NodeArgs != nil {
			args = append(args, opts.NodeArgs(i)...)
		}
		f.nodes = append(f.nodes, &Node{
			Addr:    addrs[i],
			logPath: filepath.Join(opts.Dir, fmt.Sprintf("node%d.log", i)),
			args:    args,
			bin:     bin,
		})
	}
	for i := range f.nodes {
		if err := f.nodes[i].start(); err != nil {
			_ = f.Stop()
			return nil, fmt.Errorf("harness: node %d: %w", i, err)
		}
	}
	return f, nil
}

// reservePorts binds n ephemeral localhost listeners, records their
// addresses and releases them. The released ports are what the nodes
// re-bind; on a quiet host the window for another process to steal one is
// negligible, and a steal fails loudly at node startup.
func reservePorts(n int) ([]string, error) {
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			_ = ln.Close()
		}
	}()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// start launches the node's process and waits for its ready line.
func (n *Node) start() error {
	logf, err := os.OpenFile(n.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	// A restarted node appends to its previous log; remember where this
	// launch's output starts so the old ready line cannot satisfy the wait.
	logStart, err := logf.Seek(0, io.SeekEnd)
	if err != nil {
		_ = logf.Close()
		return err
	}
	cmd := exec.Command(n.bin, n.args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		_ = logf.Close()
		return err
	}
	_ = logf.Close() // the child holds its own descriptor
	n.cmd = cmd
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	n.done = done
	return n.awaitReady(logStart)
}

// awaitReady polls the node's log, past offset, for the serve ready line.
func (n *Node) awaitReady(offset int64) error {
	deadline := time.Now().Add(readyTimeout)
	for {
		if log, err := os.ReadFile(n.logPath); err == nil && int64(len(log)) > offset {
			if strings.Contains(string(log[offset:]), readyPrefix) {
				return nil
			}
		}
		select {
		case err := <-n.done:
			n.done = nil
			return fmt.Errorf("process exited before ready (%v)\n%s", err, n.Log())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not ready after %v\n%s", readyTimeout, n.Log())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Log returns the node's combined output so far.
func (n *Node) Log() string {
	b, err := os.ReadFile(n.logPath)
	if err != nil {
		return ""
	}
	return string(b)
}

// stop terminates the process: SIGTERM first, escalating to SIGKILL after
// drainTimeout. A drain that ends in a non-zero exit is an error too.
func (n *Node) stop() error {
	if n.done == nil {
		return nil
	}
	_ = n.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-n.done:
		n.done = nil
		if err != nil {
			return fmt.Errorf("harness: node %s exited after SIGTERM: %v\n%s", n.Addr, err, n.Log())
		}
		return nil
	case <-time.After(drainTimeout):
	}
	_ = n.cmd.Process.Kill()
	<-n.done
	n.done = nil
	return fmt.Errorf("harness: node %s did not drain within %v; killed", n.Addr, drainTimeout)
}

// Nodes returns the fleet members in launch order.
func (f *Fleet) Nodes() []*Node { return f.nodes }

// Addrs lists every node's host:port in launch order.
func (f *Fleet) Addrs() []string {
	out := make([]string, len(f.nodes))
	for i, n := range f.nodes {
		out[i] = n.Addr
	}
	return out
}

// Addr returns node i's host:port.
func (f *Fleet) Addr(i int) string { return f.nodes[i].Addr }

// Kill forcibly terminates node i (SIGKILL — a crash, not a drain).
func (f *Fleet) Kill(i int) error {
	n := f.nodes[i]
	if n.done == nil {
		return nil
	}
	if err := n.cmd.Process.Kill(); err != nil {
		return err
	}
	<-n.done
	n.done = nil
	return nil
}

// Restart relaunches node i with its original arguments (same port, same
// membership) and waits for its ready line.
func (f *Fleet) Restart(i int) error {
	n := f.nodes[i]
	if n.done != nil {
		return fmt.Errorf("harness: node %d still running", i)
	}
	return n.start()
}

// Stop drains every running node, each within 10 s of its SIGTERM. The
// first failure to drain or exit 0 is reported; remaining nodes are still
// stopped.
func (f *Fleet) Stop() error {
	var firstErr error
	for _, n := range f.nodes {
		if err := n.stop(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
