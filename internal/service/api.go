package service

// The /v1 surface, declared once. routes is the one endpoint table: New
// mounts every /v1 route from it and APIReference renders it as the
// markdown committed at docs/API.md. Each route's query options are the
// options struct its handler takes — declared in pkg/coplotclient,
// whose encoder reads the same struct — so an option cannot be decoded
// without also being documented and encodable by the client.

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"coplot/internal/store"
	"coplot/pkg/coplotclient"
)

// route is one endpoint of the /v1 surface.
type route struct {
	Method  string
	Path    string
	Name    string // the endpoint name error envelopes carry
	Body    string // what the request body holds ("" = none)
	Returns string
	Errors  []string // machine error codes beyond the universal set
	Doc     string
	serve   serving
}

// serving is how a route is served: the options struct its handler
// decodes, and the mount that builds its http.Handler.
type serving struct {
	opts  reflect.Type
	mount func(s *Service, name string) http.Handler
}

// noOptions is the options struct of the routes that take none: any
// query parameter is refused.
type noOptions struct{}

// cached serves h through the response cache (Service.endpoint). The
// cache key covers the canonical list of the decoded options and the
// input blobs h returns.
func cached[O any](h func(s *Service, r *http.Request, body []byte, o *O) ([][]byte, func(context.Context) (*response, error), error)) serving {
	return serving{reflect.TypeFor[O](), func(s *Service, name string) http.Handler {
		return s.endpoint(name, func(r *http.Request, body []byte) (string, func(context.Context) (*response, error), error) {
			var o O
			if err := s.decode(r.URL.Query(), &o); err != nil {
				return "", nil, err
			}
			blobs, run, err := h(s, r, body, &o)
			if err != nil {
				return "", nil, err
			}
			return store.Key(name, canonical(&o), blobs...), run, nil
		})
	}}
}

// direct serves h outside the cache. A decode failure, or an error h
// returns before writing, is answered as the route's error envelope.
func direct[O any](h func(s *Service, w http.ResponseWriter, r *http.Request, o *O) error) serving {
	return serving{reflect.TypeFor[O](), func(s *Service, name string) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var o O
			err := s.decode(r.URL.Query(), &o)
			if err == nil {
				err = h(s, w, r, &o)
			}
			if err != nil {
				s.fail(w, name, err)
			}
		})
	}}
}

// decode fills dst, a pointer to an options struct, from the query q.
// An absent or empty option takes its declared default; a "server
// -FLAG" default resolves from the service's configuration. A
// malformed value or a missing required option fails 400 naming it
// (the first in declaration order), and so does a parameter dst does
// not declare (the lexicographically first, so the error is
// deterministic).
func (s *Service) decode(q url.Values, dst any) error {
	v := reflect.ValueOf(dst).Elem()
	opts := coplotclient.Declared(v.Type())
	for _, o := range opts {
		raw := q.Get(o.Name)
		if raw == "" {
			if o.Required() {
				return badRequest(fmt.Errorf("option %q is required", o.Name))
			}
			raw = s.defaultValue(o)
		}
		if err := setOption(v.FieldByIndex(o.Index), raw); err != nil {
			return badRequest(fmt.Errorf("option %s: %v", o.Name, err))
		}
	}
	unknown, found := "", false
	for k := range q {
		declared := slices.ContainsFunc(opts, func(o coplotclient.Option) bool { return o.Name == k })
		if !declared && (!found || k < unknown) {
			unknown, found = k, true
		}
	}
	if found {
		return badRequest(fmt.Errorf("unknown option %q", unknown))
	}
	return nil
}

// defaultValue is an option's default in wire form. A "server -FLAG"
// default is the value coplotd's -FLAG setting gives the service; a
// FLAG the service does not supply panics rather than letting the
// declaration's text reach the parser.
func (s *Service) defaultValue(o coplotclient.Option) string {
	flag, ok := strings.CutPrefix(o.Value(), "server ")
	if !ok {
		return o.Value()
	}
	if flag == "-landmarks" {
		return strconv.Itoa(s.cfg.Landmarks)
	}
	panic(fmt.Sprintf("option %s: default %q names no server setting", o.Name, o.Default))
}

// setOption parses raw into the option field f. Integer options are
// counts (processors, jobs, landmarks, neighbors), so a negative value
// is refused rather than read as some other count.
func setOption(f reflect.Value, raw string) error {
	switch f.Kind() {
	case reflect.Int:
		n, err := strconv.Atoi(raw)
		if err != nil {
			return err
		}
		if n < 0 {
			return fmt.Errorf("%d is negative", n)
		}
		f.SetInt(int64(n))
	case reflect.Uint64:
		n, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			return err
		}
		f.SetUint(n)
	case reflect.Float64:
		x, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return err
		}
		f.SetFloat(x)
	default:
		f.SetString(raw)
	}
	return nil
}

// canonical lists the options in dst as "name=value" in declaration
// order: the resolved values, defaults included, so two servers
// configured differently never alias each other's cache entries.
func canonical(dst any) []string {
	v := reflect.ValueOf(dst).Elem()
	opts := coplotclient.Declared(v.Type())
	out := make([]string, len(opts))
	for i, o := range opts {
		out[i] = o.Name + "=" + o.Format(v)
	}
	return out
}

// routes is the full public surface, in route order.
var routes = []route{
	{
		Method: "POST", Path: "/v1/analyze", Name: "analyze",
		Body:    "CSV data matrix, or multipart SWF logs (≥3 parts)",
		Returns: "the Co-plot report, byte-identical to cmd/coplot stdout",
		Errors:  []string{"degenerate_input"},
		Doc:     "Run the four-stage Co-plot pipeline over a data matrix or a set of workload logs.",
		serve:   cached((*Service).analyze),
	},
	{
		Method: "POST", Path: "/v1/variables", Name: "variables",
		Body:    "SWF log",
		Returns: "the Table-1 variable report, byte-identical to cmd/wstat stdout",
		Doc:     "Characterize one log as the paper's nine workload variables.",
		serve:   cached((*Service).variables),
	},
	{
		Method: "POST", Path: "/v1/hurst", Name: "hurst",
		Body:    "SWF log",
		Returns: "the Hurst estimate report, byte-identical to cmd/hurst stdout",
		Doc:     "Estimate the Hurst parameter of the log's Table-3 series.",
		serve:   cached((*Service).hurst),
	},
	{
		Method: "POST", Path: "/v1/validate", Name: "validate",
		Body:    "SWF log",
		Returns: "the audit report (X-Coplot-Validate-Errors carries the error count)",
		Doc:     "Audit a log for structural and statistical anomalies.",
		serve:   cached((*Service).validate),
	},
	{
		Method: "POST", Path: "/v1/scale-load", Name: "scale-load",
		Body:    "SWF log",
		Returns: "the scaled log in SWF",
		Doc:     "Apply one section-8 load-modification operator.",
		serve:   cached((*Service).scaleLoad),
	},
	{
		Method: "POST", Path: "/v1/generate", Name: "generate",
		Returns: "a synthetic SWF workload, byte-identical to cmd/wgen stdout",
		Doc:     "Draw a synthetic workload from a named model.",
		serve:   cached((*Service).generate),
	},
	{
		Method: "POST", Path: "/v1/corpus", Name: "corpus",
		Body:    "SWF log",
		Returns: "201 and the admitted corpus entry (JSON)",
		Doc: "Admit a workload to the reference corpus. The entry ID is a " +
			"content hash of (name, machine, log bytes): re-admitting the same " +
			"upload is idempotent on every replica.",
		serve: direct((*Service).corpusAdmit),
	},
	{
		Method: "GET", Path: "/v1/corpus", Name: "corpus",
		Returns: "the corpus index (JSON), cluster-merged and canonically ordered",
		Doc:     "List the corpus: the 15 seeded paper observations plus every upload.",
		serve:   direct((*Service).corpusList),
	},
	{
		Method: "GET", Path: "/v1/corpus/{id}", Name: "corpus",
		Returns: "one corpus entry (JSON)",
		Errors:  []string{"not_found"},
		Doc:     "Fetch one corpus entry by ID.",
		serve:   direct((*Service).corpusGet),
	},
	{
		Method: "DELETE", Path: "/v1/corpus/{id}", Name: "corpus",
		Returns: `{"id":..., "deleted":true}`,
		Errors:  []string{"not_found"},
		Doc:     "Remove a corpus entry, cluster-wide (the delete is broadcast to every replica).",
		serve:   direct((*Service).corpusDelete),
	},
	{
		Method: "POST", Path: "/v1/match", Name: "match",
		Body:    "SWF log (the query trace)",
		Returns: "the ranked neighbor list plus the joint embedding (JSON)",
		Errors:  []string{"degenerate_input"},
		Doc: "Match a workload trace against the corpus: embed the query jointly " +
			"with every entry, canonicalize the map to the dissimilarity gauge, and " +
			"rank entries by map distance with per-variable z-score deltas. " +
			"Deterministic: byte-identical across runs, worker counts, and replicas.",
		serve: cached((*Service).match),
	},
	{
		Method: "POST", Path: "/v1/stream/{id}/append", Name: "stream-append",
		Body:    "SWF chunk",
		Returns: "the stream's new snapshot (JSON)",
		Errors:  []string{"conflict"},
		Doc: "Fold a chunk into a live stream, creating it on first use; " +
			"options are pinned at creation and later appends must not change them (409 conflict).",
		serve: direct((*Service).streamAppend),
	},
	{
		Method: "GET", Path: "/v1/stream/{id}", Name: "stream",
		Returns: "the stream's latest snapshot (JSON)",
		Errors:  []string{"not_found"},
		Doc:     "Fetch a live stream's latest embedding.",
		serve:   direct((*Service).streamGet),
	},
	{
		Method: "GET", Path: "/v1/stream/{id}/watch", Name: "stream-watch",
		Returns: "Server-Sent Events: snapshot and drift events",
		Errors:  []string{"not_found"},
		Doc:     "Subscribe to a stream's snapshots as they are published.",
		serve:   direct((*Service).streamWatch),
	},
	{
		Method: "DELETE", Path: "/v1/stream/{id}", Name: "stream",
		Returns: "204",
		Errors:  []string{"not_found"},
		Doc:     "Drop a stream and free its slot.",
		serve:   direct((*Service).streamDelete),
	},
	{
		Method: "GET", Path: "/v1/streams", Name: "streams",
		Returns: "the registered stream ids, sorted (JSON)",
		Doc:     "List live streams.",
		serve:   direct((*Service).streamList),
	},
}

// apiErrorCodes is the full machine-code vocabulary of the error
// envelope, with the status each code rides on.
var apiErrorCodes = []struct {
	Code   string
	Status int
	Doc    string
}{
	{CodeBadRequest, 400, "malformed body, bad option value, or an unknown query parameter (named in the message)"},
	{CodeDegenerateInput, 400, "the input admits no meaningful non-metric fit (e.g. a constant matrix)"},
	{CodeNotFound, 404, "no such corpus entry or stream"},
	{CodeConflict, 409, "stream options changed after creation, or a stream/observation limit was hit"},
	{CodeTooLarge, 413, "request body over the per-request byte limit"},
	{CodeOverloaded, 429, "admission semaphore full; retry after the Retry-After delay"},
	{CodeInternal, 500, "a panic while computing; the process keeps serving"},
	{CodeCancelled, 503, "the client went away mid-compute"},
	{CodeTimeout, 504, "the request exceeded the server's -request-timeout"},
}

// APIReference renders the endpoint reference markdown committed at
// docs/API.md.
func APIReference() string {
	var b strings.Builder
	b.WriteString("# coplotd /v1 API reference\n\n")
	b.WriteString("Generated from the endpoint table in `internal/service/api.go` and the\n" +
		"option declarations in `pkg/coplotclient/options.go` — edit those and regenerate with\n" +
		"`COPLOT_WRITE_API_DOCS=1 go test ./internal/service/ -run TestAPIReference`.\n" +
		"A drift test keeps this file byte-identical to the generator.\n\n")
	b.WriteString("Every non-2xx answer is a structured envelope\n" +
		"`{\"error\":{\"code\",\"endpoint\",\"message\"}}`; success bodies of the\n" +
		"CLI-mirroring endpoints stay byte-identical to the matching CLI's\n" +
		"stdout. Cacheable responses carry `X-Coplot-Cache` (hit/miss) and\n" +
		"`X-Coplot-Key` (the content-hash cache key). `pkg/coplotclient` is\n" +
		"the typed Go client for this surface.\n\n")
	b.WriteString("## Endpoints\n")
	for _, e := range routes {
		fmt.Fprintf(&b, "\n### %s %s\n\n%s\n\n", e.Method, e.Path, e.Doc)
		if e.Body != "" {
			fmt.Fprintf(&b, "- **Body:** %s\n", e.Body)
		}
		fmt.Fprintf(&b, "- **Returns:** %s\n", e.Returns)
		fmt.Fprintf(&b, "- **Error endpoint name:** `%s`", e.Name)
		if len(e.Errors) > 0 {
			fmt.Fprintf(&b, "; extra codes: `%s`", strings.Join(e.Errors, "`, `"))
		}
		b.WriteString("\n")
		if opts := coplotclient.Declared(e.serve.opts); len(opts) > 0 {
			b.WriteString("\n| option | type | default | meaning |\n|---|---|---|---|\n")
			for _, o := range opts {
				def := o.Default
				if o.Required() {
					def = "**required**"
				}
				fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", o.Name, o.Type(), def, o.Doc)
			}
		}
	}
	b.WriteString("\n## Error codes\n\n| code | status | meaning |\n|---|---|---|\n")
	for _, c := range apiErrorCodes {
		fmt.Fprintf(&b, "| `%s` | %d | %s |\n", c.Code, c.Status, c.Doc)
	}
	return b.String()
}
