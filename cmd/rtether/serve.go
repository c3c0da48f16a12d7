package main

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/analysis"
	"repro/internal/serve"
)

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so a slow or stalled client cannot hold a connection open
// forever.
const readHeaderTimeout = 10 * time.Second

// cmdServe runs the scenario-analysis service (internal/serve) until
// the process is killed: the same engine as the CLI behind POST
// /v1/{analyze,backlog,validate,sweep}, with a content-addressed result
// cache and weighted-fair admission in front of the compute. The
// listening line goes to stderr once the socket is bound, so scripts
// can wait for readiness; stdout stays clean. Before binding, the analysis
// plan self-test (analysis.SelfTest) checks plan evaluation against the
// reference analyses; any divergence fails the start.
func cmdServe(args []string) error {
	fs := newFlagSet("serve")
	addr := fs.String("addr", "127.0.0.1:8373", "listen address")
	cacheEntries := fs.Int("cache-entries", 256, "result cache entry bound (0 disables storage; request coalescing stays)")
	maxInflight := fs.Int("max-inflight", 0, "concurrent computes (0 = all CPUs)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "serve: unexpected argument %q\n", fs.Arg(0))
		return usageErr{fmt.Errorf("unexpected argument %q", fs.Arg(0))}
	}
	if err := analysis.SelfTest(); err != nil {
		return err
	}
	srv := serve.New(serve.Config{CacheEntries: *cacheEntries, MaxInflight: *maxInflight})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "rtether serve: listening on http://%s\n", ln.Addr())
	return (&http.Server{Handler: srv, ReadHeaderTimeout: readHeaderTimeout}).Serve(ln)
}
