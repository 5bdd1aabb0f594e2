package service

// The structured error envelope. Every non-2xx response of the /v1
// surface is one JSON object:
//
//	{"error":{"code":"bad_request","endpoint":"analyze","message":"..."}}
//
// with a machine-readable code clients can branch on, while success
// bodies stay byte-identical to the matching CLI's stdout. The
// replica-to-replica /internal/v1/artifact endpoints keep their plain
// errors — they are spoken only between replicas, which retry on any
// failure and never parse the body.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"coplot/internal/engine"
	"coplot/internal/mds"
)

// The machine-readable error codes of the /v1 surface.
const (
	// CodeBadRequest marks malformed options or input data.
	CodeBadRequest = "bad_request"
	// CodeDegenerateInput marks data that parsed but admits no
	// meaningful analysis (mds.DegenerateInputError).
	CodeDegenerateInput = "degenerate_input"
	// CodeTimeout marks a request that exhausted its deadline.
	CodeTimeout = "timeout"
	// CodeOverloaded marks admission-control rejections (429).
	CodeOverloaded = "overloaded"
	// CodeCancelled marks a request abandoned by its client.
	CodeCancelled = "cancelled"
	// CodeConflict marks a request contradicting server state (stream
	// option conflicts, registry caps).
	CodeConflict = "conflict"
	// CodeNotFound marks a missing stream or corpus entry.
	CodeNotFound = "not_found"
	// CodeTooLarge marks a body over the service's byte cap.
	CodeTooLarge = "too_large"
	// CodeInternal marks everything else: contained panics, marshal
	// failures, solver faults.
	CodeInternal = "internal"
)

// apiError is the envelope payload.
type apiError struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Endpoint names the endpoint that failed.
	Endpoint string `json:"endpoint"`
	// Message is the human-readable failure description.
	Message string `json:"message"`
}

// writeError answers with the structured envelope.
func writeError(w http.ResponseWriter, status int, code, endpoint, msg string) {
	data, err := json.Marshal(struct {
		Error apiError `json:"error"`
	}{apiError{Code: code, Endpoint: endpoint, Message: msg}})
	if err != nil {
		// Unreachable for this type; keep the status if it happens.
		http.Error(w, msg, status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// statusError pins an HTTP status and an envelope code to an error.
type statusError struct {
	code int
	api  string
	err  error
}

// Error implements error.
func (e *statusError) Error() string { return e.err.Error() }

// Unwrap exposes the inner error to errors.Is/As.
func (e *statusError) Unwrap() error { return e.err }

// badRequest marks err as a deterministic input failure: answered 400
// with code bad_request.
func badRequest(err error) error {
	return &statusError{code: http.StatusBadRequest, api: CodeBadRequest, err: err}
}

// degenerate marks err as analyzable-but-degenerate input: answered
// 400 with code degenerate_input.
func degenerate(err error) error {
	return &statusError{code: http.StatusBadRequest, api: CodeDegenerateInput, err: err}
}

// notFound builds a 404 envelope error.
func notFound(msg string) error {
	return &statusError{code: http.StatusNotFound, api: CodeNotFound, err: errors.New(msg)}
}

// conflict marks err as contradicting server state (409).
func conflict(err error) error {
	return &statusError{code: http.StatusConflict, api: CodeConflict, err: err}
}

// classifyBody maps a request-body read failure: over-cap bodies are
// 413 too_large, everything else 400 bad_request.
func classifyBody(err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return &statusError{code: http.StatusRequestEntityTooLarge, api: CodeTooLarge, err: err}
	}
	return badRequest(err)
}

// fail writes err as the endpoint's structured error response.
func (s *Service) fail(w http.ResponseWriter, endpoint string, err error) {
	status := http.StatusInternalServerError
	api := CodeInternal
	msg := err.Error()
	var se *statusError
	var pe *engine.PanicError
	var deg *mds.DegenerateInputError
	switch {
	case errors.As(err, &se):
		status = se.code
		api = se.api
		msg = se.err.Error()
	case errors.As(err, &pe):
		// Contained: the one request fails, the stack stays server-side.
		msg = fmt.Sprintf("internal panic while computing %s", endpoint)
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
		api = CodeTimeout
		msg = fmt.Sprintf("%s: deadline exceeded", endpoint)
	case errors.Is(err, context.Canceled):
		status = http.StatusServiceUnavailable
		api = CodeCancelled
		msg = fmt.Sprintf("%s: request cancelled", endpoint)
	}
	if api == CodeBadRequest && errors.As(err, &deg) {
		api = CodeDegenerateInput
	}
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, status, api, endpoint, msg)
}

// errOverloaded is the admission-control rejection: 429 with the
// overloaded code, answered with a Retry-After hint.
var errOverloaded = &statusError{code: http.StatusTooManyRequests, api: CodeOverloaded, err: errors.New("server at capacity")}
