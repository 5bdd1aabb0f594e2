// Package coplotclient is the typed Go client for coplotd's /v1 API.
// It covers the whole surface — analysis, streaming, corpus and match
// — decodes the service's structured error envelope into *Error (so
// callers branch on machine codes, not substrings), and surfaces the
// cache metadata headers on every call. The benchmark
// (bench/coplotbench) and the service acceptance tests drive coplotd
// exclusively through it, which keeps the client honest: any drift
// between the server and this package breaks the repository's own
// tooling first.
package coplotclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"strconv"
)

// Client speaks to one coplotd base URL. The zero value is not usable;
// build it with New.
type Client struct {
	base string
	http *http.Client
}

// New builds a client for the coplotd at baseURL (no trailing slash
// required). httpClient nil means http.DefaultClient.
func New(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	return &Client{base: baseURL, http: httpClient}
}

// BaseURL reports the server this client targets.
func (c *Client) BaseURL() string { return c.base }

// Error is a non-2xx API answer, decoded from the service's structured
// envelope {"error":{"code","endpoint","message"}}. Answers that carry
// no envelope (a proxy in the way, a pre-envelope server) keep the raw
// body as Message with an empty Code.
type Error struct {
	// Status is the HTTP status code.
	Status int
	// Code is the machine-readable error code ("bad_request",
	// "degenerate_input", "timeout", "overloaded", ...).
	Code string
	// Endpoint names the failing endpoint, as the server reports it.
	Endpoint string
	// Message is the human-readable failure description.
	Message string
}

// Error implements error.
func (e *Error) Error() string {
	if e.Code == "" {
		return fmt.Sprintf("coplotd: status %d: %s", e.Status, e.Message)
	}
	return fmt.Sprintf("coplotd: %s (%s, status %d): %s", e.Code, e.Endpoint, e.Status, e.Message)
}

// Meta is the per-call response metadata the cacheable endpoints
// attach.
type Meta struct {
	// Status is the HTTP status code.
	Status int
	// CacheHit reports whether the response came from the server's
	// response cache (the X-Coplot-Cache header).
	CacheHit bool
	// Key is the response's content-hash cache key (X-Coplot-Key).
	Key string
	// Header is the full response header set.
	Header http.Header
}

// Do issues one raw API request: method and pathAndQuery verbatim
// against the base URL. It is the escape hatch the typed wrappers are
// built on — the load generator uses it directly to replay prepared
// request mixes. Non-2xx answers return ([]byte(nil), meta, *Error).
func (c *Client) Do(ctx context.Context, method, pathAndQuery, contentType string, body []byte) ([]byte, *Meta, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+pathAndQuery, rd)
	if err != nil {
		return nil, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	meta := &Meta{
		Status:   resp.StatusCode,
		CacheHit: resp.Header.Get("X-Coplot-Cache") == "hit",
		Key:      resp.Header.Get("X-Coplot-Key"),
		Header:   resp.Header,
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, meta, decodeError(resp.StatusCode, data)
	}
	return data, meta, nil
}

// decodeError turns a non-2xx body into *Error, envelope or not.
func decodeError(status int, body []byte) error {
	var env struct {
		Error struct {
			Code     string `json:"code"`
			Endpoint string `json:"endpoint"`
			Message  string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		return &Error{Status: status, Code: env.Error.Code, Endpoint: env.Error.Endpoint, Message: env.Error.Message}
	}
	return &Error{Status: status, Message: string(bytes.TrimSpace(body))}
}

// AnalyzeCSV runs the Co-plot pipeline over a CSV data matrix and
// returns the textual report (byte-identical to cmd/coplot's stdout).
func (c *Client) AnalyzeCSV(ctx context.Context, csv []byte, opts AnalyzeOptions) (string, *Meta, error) {
	body, meta, err := c.Do(ctx, http.MethodPost, "/v1/analyze"+Query(opts), "text/csv", csv)
	return string(body), meta, err
}

// NamedLog is one SWF log of a multipart analyze request.
type NamedLog struct {
	Name string
	Data []byte
}

// AnalyzeLogs runs the Co-plot pipeline over a set of SWF logs (at
// least 3), one observation per log.
func (c *Client) AnalyzeLogs(ctx context.Context, logs []NamedLog, opts AnalyzeOptions) (string, *Meta, error) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, l := range logs {
		fw, err := mw.CreateFormFile(l.Name, l.Name)
		if err != nil {
			return "", nil, err
		}
		if _, err := fw.Write(l.Data); err != nil {
			return "", nil, err
		}
	}
	if err := mw.Close(); err != nil {
		return "", nil, err
	}
	body, meta, err := c.Do(ctx, http.MethodPost, "/v1/analyze"+Query(opts), mw.FormDataContentType(), buf.Bytes())
	return string(body), meta, err
}

// Variables computes the Table-1 workload variables of one SWF log
// (byte-identical to cmd/wstat's stdout).
func (c *Client) Variables(ctx context.Context, swf []byte, opts VariablesOptions) (string, *Meta, error) {
	body, meta, err := c.Do(ctx, http.MethodPost, "/v1/variables"+Query(opts), "text/plain", swf)
	return string(body), meta, err
}

// Hurst estimates the Hurst parameter of one SWF log's Table-3 series
// (byte-identical to cmd/hurst's stdout).
func (c *Client) Hurst(ctx context.Context, swf []byte, opts HurstOptions) (string, *Meta, error) {
	body, meta, err := c.Do(ctx, http.MethodPost, "/v1/hurst"+Query(opts), "text/plain", swf)
	return string(body), meta, err
}

// Validate audits one SWF log (byte-identical to cmd/swfcheck's
// stdout) and additionally returns the error-severity finding count
// from the X-Coplot-Validate-Errors header.
func (c *Client) Validate(ctx context.Context, swf []byte, opts ValidateOptions) (report string, errCount int, meta *Meta, err error) {
	body, meta, err := c.Do(ctx, http.MethodPost, "/v1/validate"+Query(opts), "text/plain", swf)
	if err != nil {
		return "", 0, meta, err
	}
	n, _ := strconv.Atoi(meta.Header.Get("X-Coplot-Validate-Errors"))
	return string(body), n, meta, nil
}

// ScaleLoad applies one section-8 load-modification operator to an SWF
// log and returns the scaled log in SWF.
func (c *Client) ScaleLoad(ctx context.Context, swf []byte, opts ScaleLoadOptions) (string, *Meta, error) {
	body, meta, err := c.Do(ctx, http.MethodPost, "/v1/scale-load"+Query(opts), "text/plain", swf)
	return string(body), meta, err
}

// Generate produces a synthetic SWF workload from a named model
// (byte-identical to cmd/wgen's stdout).
func (c *Client) Generate(ctx context.Context, opts GenerateOptions) ([]byte, *Meta, error) {
	return c.Do(ctx, http.MethodPost, "/v1/generate"+Query(opts), "", nil)
}
