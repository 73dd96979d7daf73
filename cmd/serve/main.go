// Command serve runs the testbed as a live demo behind an HTTP API: the
// control loops advance in the background (one control period per tick)
// while /status, /history and /metrics expose the closed-loop state and
// /setpoint, /concurrency poke it.
//
//	serve -addr :8080 -tick 250ms
//	curl localhost:8080/status
//	curl -X POST 'localhost:8080/concurrency?app=4&level=80'   # Fig. 3 surge
//	curl localhost:8080/metrics
//	curl localhost:8080/trace > trace.json    # Chrome-trace span recording
//	serve -pprof                              # adds /debug/pprof/ profiling
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"vdcpower/internal/fault"
	"vdcpower/internal/guard"
	"vdcpower/internal/serve"
	"vdcpower/internal/testbed"
	"vdcpower/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")
	// -h prints the usage and exits 0, as flag.ExitOnError would.
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	def := guard.DefaultStepBudget()
	var (
		addr = fs.String("addr", ":8080", "listen address")
		tick = fs.Duration("tick", 250*time.Millisecond, "wall-clock time per control period (positive)")
		apps = fs.Int("apps", 8, "number of applications")
		srv  = fs.Int("servers", 4, "number of servers")
		pprf = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")

		stepEvents = fs.Int("step-budget-events", def.MaxEvents,
			"max kernel events one control period may drain (0 = unbounded)")
		stepSame = fs.Int("step-budget-same-time", def.MaxSameTimeEvents,
			"max events at one sim instant per period — the Zeno-storm bound (0 = unbounded)")
		stepWall = fs.Duration("step-deadline", def.Wall,
			"wall-clock watchdog deadline per control period (0 = none)")
		faultsPath = fs.String("faults", "",
			"JSON fault profile (fault.Profile) injected into the control loop; the guard class exhausts step budgets")
		replayPath = fs.String("replay", "",
			"replay spec JSON (internal/trace.ReplaySpec): drive application concurrency from a deterministically replayed real trace")
		replayConc = fs.Int("replay-max-conc", 0,
			"clients per application at full replayed utilization (0 = twice the testbed baseline)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tick <= 0 {
		return fmt.Errorf("-tick must be positive, got %v", *tick)
	}

	cfg := testbed.DefaultConfig()
	cfg.NumApps = *apps
	cfg.NumServers = *srv
	fmt.Println("building testbed and running system identification...")
	tb, err := testbed.New(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("identified model: %s (R²=%.2f)\n", tb.Model, tb.Fit.R2)

	s := serve.New(tb)
	s.SetGuard(guard.StepBudget{
		MaxEvents:         *stepEvents,
		MaxSameTimeEvents: *stepSame,
		Wall:              *stepWall,
	})
	if *faultsPath != "" {
		prof, err := fault.LoadProfile(*faultsPath)
		if err != nil {
			return err
		}
		s.AttachFaults(fault.New(prof))
		fmt.Printf("fault profile loaded from %s\n", *faultsPath)
	}
	if *replayPath != "" {
		sp, err := trace.LoadSpec(*replayPath)
		if err != nil {
			return err
		}
		stream, closer, err := sp.Stream()
		if err != nil {
			return err
		}
		//lint:ignore errcheck read-side close at process exit
		defer closer.Close()
		maxConc := *replayConc
		if maxConc <= 0 {
			maxConc = 2 * cfg.Concurrency
		}
		feed, err := trace.NewFeed(stream, trace.FeedConfig{
			StepSeconds: sp.StepSeconds(), Apps: cfg.NumApps, Seed: sp.Seed, MaxConcurrency: maxConc,
		})
		if err != nil {
			return err
		}
		s.AttachReplay(feed, stream.Provenance)
		fmt.Printf("replaying %s into %d apps (max concurrency %d)\n", sp.SourceLabel(), cfg.NumApps, maxConc)
	}
	s.Start(*tick)
	defer s.Stop()

	// pprof stays off unless asked for: the profiling endpoints are
	// registered explicitly on our own mux, never the default one, so the
	// blank import side effect of net/http/pprof is not relied upon.
	handler := s.Handler()
	if *pprf {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}

	fmt.Printf("serving on %s — try:\n", *addr)
	fmt.Printf("  curl %s/status\n", *addr)
	fmt.Printf("  curl %s/metrics\n", *addr)
	fmt.Printf("  curl %s/trace > trace.json\n", *addr)
	fmt.Printf("  curl -X POST '%s/concurrency?app=0&level=80'\n", *addr)
	if *pprf {
		fmt.Printf("  go tool pprof 'http://localhost%s/debug/pprof/profile?seconds=10'\n", *addr)
	}
	return http.ListenAndServe(*addr, handler)
}
