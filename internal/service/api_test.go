package service

import (
	"bytes"
	"errors"
	"fmt"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"coplot/internal/stream"
	"coplot/pkg/coplotclient"
)

// apiDocPath locates docs/API.md relative to this package.
const apiDocPath = "../../docs/API.md"

// TestAPIReferenceCurrent holds the committed endpoint reference
// byte-identical to the generator: descriptor edits without a
// regenerated docs/API.md fail here. Regenerate with
// COPLOT_WRITE_API_DOCS=1.
func TestAPIReferenceCurrent(t *testing.T) {
	want := APIReference()
	if os.Getenv("COPLOT_WRITE_API_DOCS") != "" {
		if err := os.MkdirAll(filepath.Dir(apiDocPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(apiDocPath, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", apiDocPath, len(want))
		return
	}
	got, err := os.ReadFile(apiDocPath)
	if err != nil {
		t.Fatalf("%v — regenerate with COPLOT_WRITE_API_DOCS=1 go test ./internal/service/ -run TestAPIReference", err)
	}
	if string(got) != want {
		t.Fatalf("docs/API.md is stale — regenerate with COPLOT_WRITE_API_DOCS=1 go test ./internal/service/ -run TestAPIReference")
	}
}

// TestAPIReferenceCoversRoutes cross-checks the route table against
// the live mux: every described route must resolve to a handler, so a
// renamed or removed endpoint cannot keep a stale entry.
func TestAPIReferenceCoversRoutes(t *testing.T) {
	svc := mustNew(t, Config{Jobs: 1, CorpusJobs: -1})
	for _, e := range routes {
		// Fill path parameters with a syntactically valid id.
		path := strings.ReplaceAll(e.Path, "{id}", "probe")
		r := httptest.NewRequest(e.Method, path, nil)
		_, pattern := svc.mux.Handler(r)
		if pattern == "" {
			t.Errorf("%s %s: no handler registered", e.Method, e.Path)
		}
	}
}

// TestDeclaredDefaultsParse resolves every declared default the way a
// request that omits the option does: a reworded "server -FLAG"
// default or a literal its field cannot hold fails here, not as a 400
// on every request.
func TestDeclaredDefaultsParse(t *testing.T) {
	svc := mustNew(t, Config{Jobs: 1, CorpusJobs: -1})
	for _, rt := range routes {
		v := reflect.New(rt.serve.opts).Elem()
		for _, o := range coplotclient.Declared(rt.serve.opts) {
			if o.Required() {
				continue
			}
			if err := setOption(v.FieldByIndex(o.Index), svc.defaultValue(o)); err != nil {
				t.Errorf("%s %s: default %q of %s: %v", rt.Method, rt.Path, o.Default, o.Name, err)
			}
		}
	}
}

// TestStreamDriftDefaultsMatchStream: the drift defaults StreamOptions
// declares are the stream layer's own, so a stream created without the
// options drifts exactly as one created directly with a zero Config.
func TestStreamDriftDefaultsMatchStream(t *testing.T) {
	want := map[string]float64{"drift-pos": stream.DefaultDriftPos, "drift-angle": stream.DefaultDriftAngle}
	for _, o := range coplotclient.Declared(reflect.TypeOf(coplotclient.StreamOptions{})) {
		if w, ok := want[o.Name]; ok {
			if got := o.Value(); got != strconv.FormatFloat(w, 'g', -1, 64) {
				t.Errorf("%s declares default %q, the stream layer's is %v", o.Name, got, w)
			}
			delete(want, o.Name)
		}
	}
	if len(want) != 0 {
		t.Errorf("StreamOptions no longer declares %v", want)
	}
}

// wireLog renders a deterministic SWF log from arithmetic alone, so
// the keys pinned below depend on nothing but the wire contract.
func wireLog(shift, n int) []byte {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		submit := i*97 + (i*i*7+shift)%300
		run := 50 + (i*131+shift*17)%3000
		procs := 1 << ((i + shift) % 6)
		fmt.Fprintf(&b, "%d %d 0 %d %d -1 -1 %d %d -1 1 %d 1 %d 1 -1 -1 -1\n",
			i, submit, run, procs, procs, 2*run, 1+(i+shift)%7, 1+(i*3+shift)%5)
	}
	return []byte(b.String())
}

// routeFor finds the route serving method and path.
func routeFor(t testing.TB, method, path string) route {
	t.Helper()
	for _, rt := range routes {
		if rt.Method == method && rt.Path == path {
			return rt
		}
	}
	t.Fatalf("no route %s %s", method, path)
	return route{}
}

// TestWireContractPinned holds every cached endpoint's canonical option
// list and X-Coplot-Key, at default and non-default option values, to
// literals captured before the option declarations moved into
// pkg/coplotclient: a cache written by an older coplotd stays valid.
func TestWireContractPinned(t *testing.T) {
	svc := mustNew(t, Config{Jobs: 1, CorpusJobs: -1, Landmarks: 50})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	for i := 1; i <= 3; i++ {
		if resp, body := post(t, ts, fmt.Sprintf("/v1/corpus?name=c%d", i), wireLog(i*5, 150)); resp.StatusCode != http.StatusCreated {
			t.Fatalf("admit c%d: %d %s", i, resp.StatusCode, body)
		}
	}
	var mp bytes.Buffer
	mw := multipart.NewWriter(&mp)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("l%d.swf", i)
		fw, err := mw.CreateFormFile(name, name)
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(wireLog(i*11, 120))
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	log := wireLog(0, 200)
	const csv, multi = "text/csv", "multipart"
	cases := []struct {
		path, ctype string
		canon       []string
		key         string
	}{
		{"/v1/analyze", csv, []string{"prune=0", "seed=7", "procs=128", "landmarks=50", "vars="},
			"analyze-db438a7e340588f54c1ff115344e33d8"},
		{"/v1/analyze?prune=0.25&seed=0&procs=64&landmarks=0&vars=y,x", csv, []string{"prune=0.25", "seed=0", "procs=64", "landmarks=0", "vars=y,x"},
			"analyze-42a9ea11d25bd2e81ca1e565ccfd9641"},
		{"/v1/analyze", multi, []string{"prune=0", "seed=7", "procs=128", "landmarks=50", "vars="},
			"analyze-e0e044800263bb0e253d62a354286962"},
		{"/v1/analyze?prune=0.25&seed=0&procs=64&landmarks=0", multi, []string{"prune=0.25", "seed=0", "procs=64", "landmarks=0", "vars="},
			"analyze-0bb389a3ab2e442616839186a4a94524"},
		{"/v1/variables", "", []string{"name=log", "procs=128", "sched=easy", "alloc=unlimited"},
			"variables-fe37156c30243e88b24fc38183060ab7"},
		{"/v1/variables?name=w&procs=64&sched=gang&alloc=pow2", "", []string{"name=w", "procs=64", "sched=gang", "alloc=pow2"},
			"variables-e0009187f62462f119d169f29663dd10"},
		{"/v1/hurst", "", []string{"name=log"},
			"hurst-dc0a6f4d6fe58382e284c84423305da8"},
		{"/v1/hurst?name=h", "", []string{"name=h"},
			"hurst-5ec3a76a3e7b9196dee1545be4e404be"},
		{"/v1/validate", "", []string{"name=log", "procs=128", "sched=easy", "alloc=unlimited", "downtime-factor=0", "top-user=0"},
			"validate-890306d0cf2518942256af91ac7c22fe"},
		{"/v1/validate?name=v&procs=64&sched=nqs&alloc=limited&downtime-factor=5&top-user=0.5", "",
			[]string{"name=v", "procs=64", "sched=nqs", "alloc=limited", "downtime-factor=5", "top-user=0.5"},
			"validate-e6d977becdcf82a28ea3dd6b6fc5822c"},
		{"/v1/scale-load?method=scale-runtime&factor=2", "", []string{"method=scale-runtime", "factor=2", "procs=128"},
			"scale-load-a0fad33fbb161772b5129d1540717592"},
		{"/v1/scale-load?method=scale-runtime&factor=1.5&procs=64", "", []string{"method=scale-runtime", "factor=1.5", "procs=64"},
			"scale-load-8755bac131bbc444da3e64e422d57440"},
		{"/v1/generate?model=lublin", "", []string{"model=lublin", "procs=128", "n=10000", "seed=1"},
			"generate-145eb5ac3a7d8d08c890cebc0cd51fa2"},
		{"/v1/generate?model=downey&procs=64&n=40&seed=0", "", []string{"model=downey", "procs=64", "n=40", "seed=0"},
			"generate-a29b395226b589e8a74e7c7fa4dfce75"},
		{"/v1/match", "", []string{"name=query", "seed=7", "landmarks=50", "k=0", "procs=128", "sched=easy", "alloc=unlimited"},
			"match-113a5d3f7aa002c489b85ca92b08c9a7"},
		{"/v1/match?name=q&seed=3&landmarks=0&k=2&procs=64&sched=nqs&alloc=pow2", "",
			[]string{"name=q", "seed=3", "landmarks=0", "k=2", "procs=64", "sched=nqs", "alloc=pow2"},
			"match-96da4fa9f9711c8410c066c5f6373ddb"},
	}
	for _, c := range cases {
		u, err := url.Parse(c.path)
		if err != nil {
			t.Fatal(err)
		}
		dst := reflect.New(routeFor(t, http.MethodPost, u.Path).serve.opts).Interface()
		if err := svc.decode(u.Query(), dst); err != nil {
			t.Fatalf("%s: decode: %v", c.path, err)
		}
		if got := canonical(dst); !slices.Equal(got, c.canon) {
			t.Errorf("%s: canonical %q, want %q", c.path, got, c.canon)
		}

		ctype, body := "text/plain", log
		switch {
		case u.Path == "/v1/generate":
			ctype, body = "", nil
		case c.ctype == csv:
			ctype, body = csv, []byte(testCSV)
		case c.ctype == multi:
			ctype, body = mw.FormDataContentType(), mp.Bytes()
		}
		resp, err := http.Post(ts.URL+c.path, ctype, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", c.path, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Coplot-Key"); got != c.key {
			t.Errorf("%s (%s): X-Coplot-Key %s, want %s", c.path, c.ctype, got, c.key)
		}
	}
}

// TestNonPositiveProcsRejected holds every endpoint that describes a
// machine or a model to one answer for procs ≤ 0: 400 bad_request,
// never a 500, a report, or a silently substituted default machine.
func TestNonPositiveProcsRejected(t *testing.T) {
	svc := mustNew(t, Config{Jobs: 1, CorpusJobs: -1})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	log := wireLog(0, 60)
	for _, procs := range []string{"0", "-3"} {
		for _, c := range []struct {
			path string
			body []byte
		}{
			{"/v1/generate?model=lublin&n=20&procs=", nil},
			{"/v1/validate?procs=", log},
			{"/v1/variables?procs=", log},
			{"/v1/match?procs=", log},
			{"/v1/corpus?name=x&procs=", log},
			{"/v1/stream/p/append?procs=", log},
		} {
			resp, body := post(t, ts, c.path+procs, c.body)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `"code":"bad_request"`) {
				t.Errorf("%s%s: %d %.80s, want 400 bad_request", c.path, procs, resp.StatusCode, body)
			}
		}
	}
}

// TestNegativeCountsRejected: a negative integer option answers 400
// bad_request naming it, on every route that takes one, instead of
// being served as if it were 0 (k, landmarks) or reaching a generator
// that cannot size a negative log (n).
func TestNegativeCountsRejected(t *testing.T) {
	svc := mustNew(t, Config{Jobs: 1, CorpusJobs: corpusTestJobs})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	log := wireLog(0, 60)
	for _, c := range []struct {
		path, option string
		body         []byte
	}{
		{"/v1/match?k=-3", "k", log},
		{"/v1/match?landmarks=-5", "landmarks", log},
		{"/v1/analyze?landmarks=-5", "landmarks", []byte(testCSV)},
		{"/v1/stream/n/append?landmarks=-5", "landmarks", log},
		{"/v1/generate?model=lublin&n=-3", "n", nil},
	} {
		resp, body := post(t, ts, c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `"code":"bad_request"`) ||
			!strings.Contains(string(body), "option "+c.option+":") {
			t.Errorf("%s: %d %.120s, want 400 bad_request naming %s", c.path, resp.StatusCode, body, c.option)
		}
	}
}

// FuzzDecodeOptions throws arbitrary query strings at every route's
// option declaration and holds the decoder to its contract: it never
// panics; an input either decodes or fails 400 naming a parameter; and
// a decoded struct, re-encoded by the client's encoder (with every
// option explicit where the struct has an Explicit list), decodes again
// to the identical canonical list. A struct without an Explicit list
// cannot send a zero; the one zero its routes would read differently
// from the default, procs=0, they answer 400
// (TestNonPositiveProcsRejected), so such inputs skip the round trip.
func FuzzDecodeOptions(f *testing.F) {
	f.Add(uint8(0), "prune=0.25&seed=0&procs=64&landmarks=0&vars=y,x")
	f.Add(uint8(11), "obs=a&seed=05&drift-pos=0.250")
	svc := mustNew(f, Config{Jobs: 1, CorpusJobs: -1, Landmarks: 50})
	f.Fuzz(func(t *testing.T, which uint8, raw string) {
		rt := routes[int(which)%len(routes)]
		q := (&url.URL{RawQuery: raw}).Query()
		dst := reflect.New(rt.serve.opts)
		err := svc.decode(q, dst.Interface())
		if err != nil {
			var se *statusError
			if !errors.As(err, &se) || se.code != http.StatusBadRequest || se.api != CodeBadRequest {
				t.Fatalf("%s %s?%s: error %v is not a 400 bad_request", rt.Method, rt.Path, raw, err)
			}
			named := false
			for k := range q {
				named = named || strings.Contains(err.Error(), strconv.Quote(k)) || strings.Contains(err.Error(), "option "+k+":")
			}
			for _, o := range coplotclient.Declared(rt.serve.opts) {
				named = named || strings.Contains(err.Error(), strconv.Quote(o.Name))
			}
			if !named {
				t.Fatalf("%s %s?%s: error %q names no parameter", rt.Method, rt.Path, raw, err)
			}
			return
		}
		canon := canonical(dst.Interface())
		if f := dst.Elem().FieldByName("Explicit"); f.IsValid() {
			var all []string
			for _, o := range coplotclient.Declared(rt.serve.opts) {
				all = append(all, o.Name)
			}
			f.Set(reflect.ValueOf(all))
		} else if slices.Contains(canon, "procs=0") {
			return
		}
		again := reflect.New(rt.serve.opts).Interface()
		encoded := coplotclient.Query(dst.Elem().Interface())
		if err := svc.decode((&url.URL{RawQuery: strings.TrimPrefix(encoded, "?")}).Query(), again); err != nil {
			t.Fatalf("%s %s?%s: re-encoded %q fails: %v", rt.Method, rt.Path, raw, encoded, err)
		}
		if got := canonical(again); !slices.Equal(got, canon) {
			t.Fatalf("%s %s?%s: re-encoded %q decodes to %q, want %q", rt.Method, rt.Path, raw, encoded, got, canon)
		}
	})
}
