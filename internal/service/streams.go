package service

// The streaming endpoints. Unlike the batch endpoints, streams are
// stateful: appends mutate a live stream.Stream held in the service's
// registry, so nothing here touches the response cache or the engine's
// single-flight store — a stream append is not a pure function of its
// request. Appends still pass through the admission semaphore (an
// append runs the embedding solver); the SSE watch endpoint does not,
// because a watcher parks for minutes and holds no compute.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"coplot/internal/stream"
	"coplot/pkg/coplotclient"
)

// streamConfig resolves an append's decoded options into the stream
// configuration, pinning the canonical list of every option but Obs
// (StreamOptions declares it first) in Config.Tag.
func (s *Service) streamConfig(o *coplotclient.StreamOptions) (stream.Config, error) {
	m, err := cliMachine(o.Machine)
	if err != nil {
		return stream.Config{}, err
	}
	return stream.Config{
		Machine:    m,
		Seed:       o.Seed,
		Par:        s.budget,
		DriftPos:   o.DriftPos,
		DriftAngle: o.DriftAngle,
		Landmarks:  o.Landmarks,
		Sink:       s.sink,
		Tag:        strings.Join(canonical(o)[1:], "&"),
	}, nil
}

// checkPinned compares the options a follow-up append carries, as
// decoded values, against the ones pinned at creation; any that differ
// is a conflict (409) — one stream, one configuration. Both tags list
// the same options in declaration order.
func checkPinned(q url.Values, pinned, got string) error {
	want := strings.Split(pinned, "&")
	for i, kv := range strings.Split(got, "&") {
		if k, _, _ := strings.Cut(kv, "="); q.Has(k) && kv != want[i] {
			return conflict(fmt.Errorf("stream option %s conflicts with the stream's %s", kv, want[i]))
		}
	}
	return nil
}

// streamAppend maps POST /v1/stream/{id}/append: the body is an SWF
// chunk folded into observation o.Obs of stream {id}, created on first
// use with the request's options. The answer is the stream's new
// snapshot. Appends are admitted through the service semaphore and
// bypass the response cache entirely.
func (s *Service) streamAppend(w http.ResponseWriter, r *http.Request, o *coplotclient.StreamOptions) error {
	select {
	case s.sem <- struct{}{}:
	default:
		return errOverloaded
	}
	defer func() { <-s.sem }()

	cfg, err := s.streamConfig(o)
	if err != nil {
		return err
	}
	body, err := readBody(w, r)
	if err != nil {
		return err
	}
	st, created, err := s.streams.GetOrCreate(r.PathValue("id"), cfg)
	if err != nil {
		if errors.Is(err, stream.ErrTooManyStreams) {
			return conflict(err)
		}
		return badRequest(err)
	}
	if !created {
		if err := checkPinned(r.URL.Query(), st.Config().Tag, cfg.Tag); err != nil {
			return err
		}
	}
	snap, err := st.Append(r.Context(), o.Obs, body)
	if err != nil {
		if errors.Is(err, stream.ErrTooManyObservations) || errors.Is(err, stream.ErrTooManyJobs) {
			return conflict(err)
		}
		return badRequest(err)
	}
	w.Header().Set("X-Coplot-Stream-Version", strconv.FormatUint(snap.Version, 10))
	return writeJSON(w, http.StatusOK, snap)
}

// streamGet maps GET /v1/stream/{id}: the latest snapshot.
func (s *Service) streamGet(w http.ResponseWriter, r *http.Request, _ *noOptions) error {
	st := s.streams.Get(r.PathValue("id"))
	if st == nil {
		return notFound("no such stream")
	}
	snap := st.Latest()
	if snap == nil {
		return notFound("stream has no snapshot yet")
	}
	w.Header().Set("X-Coplot-Stream-Version", strconv.FormatUint(snap.Version, 10))
	return writeJSON(w, http.StatusOK, snap)
}

// streamDelete maps DELETE /v1/stream/{id}. Watchers of a deleted
// stream keep their subscriptions; they stop receiving new versions
// once every appender reference is gone.
func (s *Service) streamDelete(w http.ResponseWriter, r *http.Request, _ *noOptions) error {
	if !s.streams.Delete(r.PathValue("id")) {
		return notFound("no such stream")
	}
	w.WriteHeader(http.StatusNoContent)
	return nil
}

// streamList maps GET /v1/streams: the registered stream ids, sorted.
func (s *Service) streamList(w http.ResponseWriter, r *http.Request, _ *noOptions) error {
	return writeJSON(w, http.StatusOK, map[string]any{"streams": s.streams.List()})
}

// streamWatch maps GET /v1/stream/{id}/watch: a Server-Sent Events
// feed of the stream. The current snapshot arrives immediately, then
// every accepted append — coalesced under back-pressure, so a slow
// consumer skips versions but never stalls appenders and never sees a
// version twice. Each snapshot arrives as a `snapshot` event (the SSE
// id is the version); every drift crossing in it is re-emitted as a
// separate `drift` event for consumers that only care about anomalies.
func (s *Service) streamWatch(w http.ResponseWriter, r *http.Request, _ *noOptions) error {
	st := s.streams.Get(r.PathValue("id"))
	if st == nil {
		return notFound("no such stream")
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		return errors.New("streaming unsupported by this connection")
	}
	ch, cancel := st.Subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return nil
		case snap, ok := <-ch:
			if !ok {
				return nil
			}
			data, err := json.Marshal(snap)
			if err != nil {
				return nil
			}
			fmt.Fprintf(w, "event: snapshot\nid: %d\ndata: %s\n\n", snap.Version, data)
			for _, d := range snap.Drift {
				dd, err := json.Marshal(d)
				if err != nil {
					return nil
				}
				fmt.Fprintf(w, "event: drift\nid: %d\ndata: %s\n\n", snap.Version, dd)
			}
			fl.Flush()
		}
	}
}
