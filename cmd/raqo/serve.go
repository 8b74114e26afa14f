package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"raqo/internal/feedback"
	"raqo/internal/fleet"
	"raqo/internal/server"
)

// pprofHandler builds the standard net/http/pprof mux explicitly — the
// service mux never sees these routes, so profiling only exists on the
// dedicated -pprof listener.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveSettings is the parsed form of `raqo serve`'s flags: the server
// configuration plus the listen address and the planner/scale labels the
// ready line prints. Kept separate from serveCmd so the flag→Config
// mapping is unit-testable.
type serveSettings struct {
	addr    string
	planner string
	sf      float64
	// pprofAddr, when non-empty, serves net/http/pprof on its own
	// listener, kept off the service mux so profiling is never exposed on
	// the API port.
	pprofAddr string
	cfg       server.Config
	// fleet, when fleet.NodeID is non-empty, wraps the server in a fleet
	// routing node with the given static membership.
	fleet fleet.Config
}

// parseServeFlags maps the serve flags in args onto serveSettings.
func parseServeFlags(args []string) (*serveSettings, error) {
	fs, settings := serveFlags()
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return settings()
}

// serveFlags defines the serve flag set and returns it with the function
// that maps the parsed flags onto serveSettings.
func serveFlags() (*flag.FlagSet, func() (*serveSettings, error)) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address (host:port; :0 picks an ephemeral port)")
	plannerName := fs.String("planner", "selinger", "query planner: selinger or randomized")
	sf := fs.Float64("sf", 100, "TPC-H scale factor")
	maxInFlight := fs.Int("max-inflight", 0, "max concurrently planning requests (0 = max(2, NumCPU))")
	queueDepth := fs.Int("queue-depth", 64, "admission wait-queue depth")
	queueWait := fs.Duration("queue-wait", 2*time.Second, "max time a request waits for an admission slot")
	requestTimeout := fs.Duration("request-timeout", 30*time.Second, "max planning time per request")
	journal := fs.String("journal", "", "append execution feedback to this JSONL journal")
	journalMaxBytes := fs.Int64("journal-max-bytes", 0, "rotate the feedback journal at this size (0 = never)")
	journalMaxFiles := fs.Int("journal-max-files", 0, "rotated journal files to keep, oldest pruned (0 = all)")
	historyDir := fs.String("history-dir", "", "persist telemetry and feedback series to a history store in this directory")
	historyRetention := fs.Duration("history-retention", 0, "raw history segment retention (0 = store default; rollups retain longer)")
	historyInterval := fs.Duration("history-interval", 0, "telemetry gather period into the history store (0 = 10s, negative disables)")
	feedbackCap := fs.Int("feedback-capacity", 0, "in-memory feedback ring capacity (0 = default)")
	driftThreshold := fs.Float64("drift-threshold", 0, "relative-error quantile that declares model drift (0 = default)")
	driftQuantile := fs.Float64("drift-quantile", 0, "error quantile the drift detector watches (0 = default)")
	driftWindow := fs.Int("drift-window", 0, "per-class error window size (0 = default)")
	driftMinSamples := fs.Int("drift-min-samples", 0, "min windowed samples before a class can drift (0 = default)")
	recalInterval := fs.Duration("recal-interval", 0, "background recalibration check interval (0 = 30s, negative disables)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this separate address (empty = disabled)")
	arbCapacity := fs.Int("arbiter-capacity", 0, "container count of the workload arbiter's simulated pool (0 = 100)")
	cloudSeed := fs.Int64("cloud-seed", 0, "seed for the cloud pool's spot-interruption process (0 = fault-free)")
	cloudOnDemand := fs.Int("cloud-ondemand", 0, "on-demand containers in the priced cloud pool (0 = 12)")
	cloudSpot := fs.Int("cloud-spot", 0, "spot containers in the priced cloud pool (0 = 24, negative omits spot)")
	cloudAutoscale := fs.Bool("cloud-autoscale", false, "put the spot class under the autoscaler")
	peers := fs.String("peers", "", "comma-separated host:port list of the other fleet nodes (enables fleet routing)")
	nodeID := fs.String("node-id", "", "this node's advertised host:port on the fleet ring (required with -peers)")
	return fs, func() (*serveSettings, error) {
		fleetCfg, err := parseFleetFlags(*peers, *nodeID)
		if err != nil {
			return nil, err
		}

		opts, err := planOptions(*plannerName)
		if err != nil {
			return nil, err
		}

		return &serveSettings{
			addr:      *addr,
			planner:   *plannerName,
			sf:        *sf,
			pprofAddr: *pprofAddr,
			fleet:     fleetCfg,
			cfg: server.Config{
				SF:               *sf,
				Options:          opts,
				MaxInFlight:      *maxInFlight,
				MaxQueue:         *queueDepth,
				QueueTimeout:     *queueWait,
				RequestTimeout:   *requestTimeout,
				JournalPath:      *journal,
				JournalMaxBytes:  *journalMaxBytes,
				JournalMaxFiles:  *journalMaxFiles,
				FeedbackCapacity: *feedbackCap,
				Drift: feedback.DriftConfig{
					Threshold:  *driftThreshold,
					Quantile:   *driftQuantile,
					Window:     *driftWindow,
					MinSamples: *driftMinSamples,
				},
				RecalInterval:    *recalInterval,
				HistoryDir:       *historyDir,
				HistoryRetention: int64(*historyRetention / time.Second),
				HistoryInterval:  *historyInterval,
				ArbiterCapacity:  *arbCapacity,
				CloudSeed:        *cloudSeed,
				CloudOnDemand:    *cloudOnDemand,
				CloudSpot:        *cloudSpot,
				CloudAutoscale:   *cloudAutoscale,
			},
		}, nil
	}
}

// parseFleetFlags validates the fleet membership flags. An empty -node-id
// with no -peers means fleet routing is off; -node-id alone runs a fleet
// of one (useful for uniform harness configs); -peers without -node-id is
// an error because peers cannot agree on ring placement for a node that
// does not know its own advertised address.
func parseFleetFlags(peers, nodeID string) (fleet.Config, error) {
	var cfg fleet.Config
	var list []string
	for _, p := range strings.Split(peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			list = append(list, p)
		}
	}
	if nodeID == "" {
		if len(list) > 0 {
			return cfg, fmt.Errorf("-peers requires -node-id (this node's advertised host:port)")
		}
		return cfg, nil
	}
	if err := fleet.ValidateAddr(nodeID); err != nil {
		return cfg, fmt.Errorf("-node-id: %w", err)
	}
	norm, err := fleet.NormalizePeers(nodeID, list)
	if err != nil {
		return cfg, fmt.Errorf("-peers: %w", err)
	}
	cfg.NodeID = nodeID
	cfg.Peers = norm
	return cfg, nil
}

// serveCmd runs the long-running optimizer service: the RAQO component of
// the paper's Figure 8 architecture, serving joint (plan, resource)
// decisions over HTTP with process-wide warm memos, admission control,
// the execution-feedback loop and Prometheus metrics. SIGINT/SIGTERM
// drain gracefully.
func serveCmd(args []string) error {
	st, err := parseServeFlags(args)
	if err != nil {
		return err
	}
	s, err := server.New(st.cfg)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if st.pprofAddr != "" {
		pl, err := net.Listen("tcp", st.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		fmt.Printf("raqo serve: pprof on %s\n", pl.Addr())
		pctx, stopPprof := context.WithCancel(ctx)
		pprofDone := make(chan struct{})
		go func() {
			defer close(pprofDone)
			_ = server.ServeConns(pctx, pl, pprofHandler())
		}()
		defer func() {
			stopPprof()
			<-pprofDone
		}()
	}
	if st.fleet.NodeID != "" {
		node, err := fleet.NewNode(st.fleet, s)
		if err != nil {
			return err
		}
		return node.Serve(ctx, st.addr, func(bound string) {
			fmt.Printf("raqo serve: listening on %s (planner %s, sf %g, fleet node %s, %d peers)\n",
				bound, st.planner, st.sf, st.fleet.NodeID, len(st.fleet.Peers))
		})
	}
	return s.Serve(ctx, st.addr, func(bound string) {
		fmt.Printf("raqo serve: listening on %s (planner %s, sf %g)\n", bound, st.planner, st.sf)
	})
}
