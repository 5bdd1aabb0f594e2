// Command coplotd serves the toolkit's analyses as a long-running
// HTTP service. Every endpoint is deterministic and cacheable:
// responses are keyed by a content hash of (input bytes, options,
// seed) in the engine's single-flight store, so a repeated request is
// a cache hit and two identical requests racing compute once. Bodies
// are byte-identical to the matching CLI's stdout.
//
//	POST /v1/analyze     Co-plot map: CSV body, or multipart SWF logs (= coplot)
//	POST /v1/variables   Table-1 workload variables of an SWF body    (= wstat)
//	POST /v1/hurst       Hurst estimates of an SWF body               (= hurst)
//	POST /v1/validate    validity audit of an SWF body                (= swfcheck)
//	POST /v1/scale-load  section-8 load scaling of an SWF body
//	POST /v1/generate    synthetic SWF workload from a model          (= wgen)
//	GET  /healthz        liveness and vitals
//	GET  /metrics        aggregate run manifest (JSON)
//
// Corpus endpoints — a managed reference set of analyzed workloads,
// seeded at startup with the paper's 15 observations (ten production
// logs, five models; disable with -corpus-jobs=-1) and extended by
// uploads:
//
//	POST   /v1/corpus       analyze an SWF body and admit it (?name= required)
//	GET    /v1/corpus       the corpus index (cluster-merged, JSON)
//	GET    /v1/corpus/{id}  one entry (JSON)
//	DELETE /v1/corpus/{id}  remove an entry, cluster-wide
//	POST   /v1/match        rank the corpus against an SWF body: joint
//	                        Co-plot embedding + nearest neighbors (JSON)
//
// Streaming endpoints (stateful, never cached):
//
//	POST   /v1/stream/{id}/append   fold an SWF chunk into observation ?obs=NAME,
//	                                creating the stream on first use; answers the
//	                                new snapshot (JSON)
//	GET    /v1/stream/{id}          latest snapshot (JSON)
//	GET    /v1/stream/{id}/watch    live snapshot + drift feed (Server-Sent Events)
//	DELETE /v1/stream/{id}          drop the stream
//	GET    /v1/streams              registered stream ids (JSON)
//
// Cluster mode (all replica-to-replica only):
//
//	GET    /internal/v1/artifact/{key}   fetch a resident cached artifact
//	PUT    /internal/v1/artifact/{key}   accept a back-filled artifact
//	GET    /internal/v1/corpus           this replica's own corpus index
//	DELETE /internal/v1/corpus/{id}      drop an entry from this replica
//
// Usage:
//
//	coplotd [-addr HOST:PORT] [-jobs N] [-max-inflight N] [-cache-bytes N]
//	        [-cache-dir DIR]
//	        [-request-timeout D] [-drain D] [-trace FILE] [-manifest FILE]
//	        [-peers URL,URL,...] [-self URL]
//	        [-peer-timeout D] [-peer-retries N]
//	        [-max-streams N] [-landmarks N] [-corpus-jobs N]
//
// One -jobs worker budget is shared by every in-flight request, so
// total kernel parallelism stays bounded under concurrent load;
// -max-inflight caps admitted requests and the excess is answered 429
// with Retry-After. SIGTERM or SIGINT drains in-flight requests for up
// to -drain before exiting 0.
//
// -landmarks sets the service-wide scale threshold: an analysis or
// stream over more observations than this embeds a landmark sample
// exactly and places the rest against it (landmark MDS) instead of
// running the full solver, keeping corpus-scale requests interactive.
// Per-request ?landmarks= overrides it; the resolved value is part of
// the response cache key.
//
// With -cache-dir the response cache gains a durable tier: responses
// persist as content-addressed files there, so a restarted coplotd
// serves previously computed keys as cache hits with byte-identical
// bodies: the cache is then tiered, an LRU memory layer bounded by
// -cache-bytes over the durable files.
//
// Cluster mode: start N replicas with the same -peers list (every
// replica's base URL, comma-separated) and each replica's own URL as
// -self, and the replicas act as one cache. A consistent-hash ring
// (64 virtual nodes per member) assigns every content key
// an owner replica; on a local miss a replica first tries a
// checksummed peer fill from the owner before recomputing, and a
// computed response whose owner is another replica is back-filled
// there. A dead peer is never a client-visible error — fetches and
// back-fills time out after -peer-timeout per attempt (+ -peer-retries
// deterministic-backoff retries) and the replica falls back to local
// compute, byte-identical by determinism.
//
// Corpus and match: the corpus holds analyzed workloads — each reduced
// to its Table-1 variable vector, content-addressed, persisted through
// the response cache's durable tier (so it survives restarts) and, in
// cluster mode, merged across replicas on every read. /v1/match joins
// an uploaded SWF trace with the corpus, computes the joint Co-plot
// embedding (gauge-canonicalized, landmark MDS past -landmarks), and
// answers the ranked nearest neighbors by map distance plus
// per-variable z-score deltas — deterministically: the same corpus and
// trace produce byte-identical rankings at any worker count, on any
// replica. -corpus-jobs sizes the generated seed logs; replicas of one
// cluster must agree on it so their seed entries share IDs.
//
// Streaming: a stream is a set of named, growing SWF logs with a live
// Co-plot embedding over them, re-solved incrementally on every append
// (warm-started from the previous configuration) and re-anchored on a
// cold solve whenever the warm update is not trustworthy. Appends and
// drift threshold crossings surface as stream.update / stream.drift
// events on -trace, in /metrics and in the exit manifest. The drift
// thresholds are per-stream options (?drift-pos=, ?drift-angle=) and
// -max-streams caps the registry.
//
// Observability: each request emits engine events (-trace appends them
// as JSON lines), /metrics serves the same aggregate manifest the
// batch CLIs write with -manifest (also written to -manifest on exit),
// and -cpuprofile/-memprofile/-pprof expose the standard Go profilers.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"coplot/internal/obs"
	"coplot/internal/service"
)

func main() {
	os.Exit(realMain())
}

// realMain runs the server and returns its exit code, so deferred
// cleanups (profile flush, trace close) run before the process exits.
func realMain() int {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	jobs := flag.Int("jobs", 0, "worker budget shared by all in-flight requests (0 = GOMAXPROCS)")
	maxInflight := flag.Int("max-inflight", 0, "concurrent requests admitted; excess get 429 (0 = 2x the worker budget)")
	cacheBytes := flag.Int64("cache-bytes", 0, "response-cache byte cap, LRU-evicted past it (0 = 256 MiB, negative = unbounded)")
	cacheDir := flag.String("cache-dir", "", "durable response-cache directory; cached responses survive restarts (empty = memory only)")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request time limit (0 = none)")
	drain := flag.Duration("drain", 30*time.Second, "how long shutdown waits for in-flight requests (0 = no limit)")
	peers := flag.String("peers", "", "comma-separated base URLs of every cluster replica, including this one (empty = single replica)")
	self := flag.String("self", "", "this replica's own base URL as peers reach it; required with -peers")
	peerTimeout := flag.Duration("peer-timeout", 0, "per-attempt time limit for peer fetches and back-fills (0 = 2s)")
	peerRetries := flag.Int("peer-retries", 1, "extra attempts after a failed peer operation (0 = single attempt)")
	maxStreams := flag.Int("max-streams", 0, "live streams held by the /v1/stream endpoints (0 = 64)")
	landmarks := flag.Int("landmarks", 0, "default landmark count: analyses and streams over more observations use landmark MDS (0 = always solve exactly)")
	corpusJobs := flag.Int("corpus-jobs", 0, "log length of the 15 seed corpus observations (0 = 2000, negative = start with an empty corpus)")
	tracePath := flag.String("trace", "", "append engine events as JSON lines to this file")
	manifestPath := flag.String("manifest", "", "write the aggregate run manifest to this file on exit")
	var prof obs.Profile
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if *landmarks < 0 {
		fmt.Fprintf(os.Stderr, "coplotd: -landmarks %d is negative\n", *landmarks)
		return 2
	}

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "coplotd:", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "coplotd: profile:", err)
		}
	}()
	var sink obs.Sink
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "coplotd:", err)
			return 1
		}
		defer f.Close()
		sink = obs.NewTrace(f)
	}

	svc, err := service.New(service.Config{
		Jobs:           *jobs,
		MaxInflight:    *maxInflight,
		CacheBytes:     *cacheBytes,
		CacheDir:       *cacheDir,
		RequestTimeout: *requestTimeout,
		Peers:          splitPeers(*peers),
		Self:           *self,
		PeerTimeout:    *peerTimeout,
		PeerRetries:    *peerRetries,
		Sink:           sink,
		MaxStreams:     *maxStreams,
		Landmarks:      *landmarks,
		CorpusJobs:     *corpusJobs,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "coplotd:", err)
		return 1
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coplotd:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "coplotd: listening on %s\n", ln.Addr())

	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "coplotd: %v: draining\n", s)
		close(stop)
	}()

	serveErr := svc.Serve(ln, stop, *drain)
	if *manifestPath != "" {
		if err := svc.Manifest().WriteFile(*manifestPath); err != nil {
			fmt.Fprintln(os.Stderr, "coplotd: manifest:", err)
			return 1
		}
	}
	if serveErr != nil {
		fmt.Fprintln(os.Stderr, "coplotd:", serveErr)
		return 1
	}
	fmt.Fprintln(os.Stderr, "coplotd: drained, exiting")
	return 0
}

// splitPeers parses the -peers flag: a comma-separated URL list with
// blanks dropped, nil when the flag is empty.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
