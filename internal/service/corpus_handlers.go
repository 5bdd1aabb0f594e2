package service

// The corpus endpoints: a managed reference set of analyzed workloads
// — the paper's 15 observations seeded at startup, extended by uploads
// — and the /v1/match endpoint that ranks it against an uploaded
// trace.
//
// Cluster visibility is union-on-read: every replica answers list,
// get and match over the merge of its own index with each peer's
// /internal/v1/corpus index (entries are content-addressed, so the
// merge deduplicates by ID and replicas can never disagree about an
// ID's value). Deletes broadcast to every peer. A peer that cannot be
// reached degrades the view to what is reachable instead of failing
// the request — the same stance the artifact exchange takes.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"coplot/internal/cluster"
	"coplot/internal/corpus"
	"coplot/internal/mds"
	"coplot/internal/swf"
	"coplot/internal/workload"
	"coplot/pkg/coplotclient"
)

// writeJSON answers with v as one JSON document. A marshal failure
// writes nothing and is returned for the caller's error envelope.
func writeJSON(w http.ResponseWriter, status int, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
	return nil
}

// corpusAdmit maps POST /v1/corpus: the body is one SWF log, analyzed
// under the machine options and admitted as an upload entry. Like
// every request that reads a body and computes, it takes an admission
// slot first (429 when none is free). Re-admitting the same log under
// the same name and machine is idempotent — the entry's ID is a
// content hash of exactly those inputs.
func (s *Service) corpusAdmit(w http.ResponseWriter, r *http.Request, o *coplotclient.CorpusAdmitOptions) error {
	select {
	case s.sem <- struct{}{}:
	default:
		return errOverloaded
	}
	defer func() { <-s.sem }()
	body, err := readBody(w, r)
	if err != nil {
		return err
	}
	m, err := cliMachine(o.Machine)
	if err != nil {
		return err
	}
	log, err := swf.Parse(bytes.NewReader(body))
	if err != nil {
		return badRequest(err)
	}
	v, err := workload.Compute(o.Name, log, m)
	if err != nil {
		return badRequest(err)
	}
	e := corpus.FromVariables(corpus.EntryID(o.Name, m, body), corpus.SourceUpload, len(log.Jobs), v)
	if err := s.corpus.Admit(e); err != nil {
		return badRequest(err)
	}
	return writeJSON(w, http.StatusCreated, e.Wire(true))
}

// corpusListBody is the GET /v1/corpus response payload.
type corpusListBody struct {
	// Entries holds the cluster-merged corpus in canonical order.
	Entries []corpus.WireEntry `json:"entries"`
	// Total is len(Entries), for clients that only want the count.
	Total int `json:"total"`
}

// corpusList maps GET /v1/corpus: the merged corpus index, canonical
// order (name, then ID).
func (s *Service) corpusList(w http.ResponseWriter, r *http.Request, _ *noOptions) error {
	entries := s.mergedEntries(r.Context())
	out := corpusListBody{Entries: make([]corpus.WireEntry, 0, len(entries)), Total: len(entries)}
	for _, e := range entries {
		out.Entries = append(out.Entries, e.Wire(true))
	}
	return writeJSON(w, http.StatusOK, out)
}

// corpusGet maps GET /v1/corpus/{id}: one entry, from the local index
// or any peer's.
func (s *Service) corpusGet(w http.ResponseWriter, r *http.Request, _ *noOptions) error {
	id := r.PathValue("id")
	e, ok := s.corpus.Get(id)
	if !ok {
		for _, p := range s.mergedEntries(r.Context()) {
			if p.ID == id {
				e, ok = p, true
				break
			}
		}
	}
	if !ok {
		return notFound(fmt.Sprintf("corpus entry %s not found", id))
	}
	return writeJSON(w, http.StatusOK, e.Wire(true))
}

// corpusDelete maps DELETE /v1/corpus/{id}: removes the entry from
// this replica and broadcasts the removal to every peer. Deleting a
// seed entry is allowed but transient — seeds are regenerated at the
// next restart (start with -corpus-jobs=-1 to serve without them).
func (s *Service) corpusDelete(w http.ResponseWriter, r *http.Request, _ *noOptions) error {
	id := r.PathValue("id")
	deleted := s.corpus.Delete(id)
	for _, peer := range s.peerURL {
		if s.peerDelete(r.Context(), peer, id) {
			deleted = true
		}
	}
	if !deleted {
		return notFound(fmt.Sprintf("corpus entry %s not found", id))
	}
	return writeJSON(w, http.StatusOK, struct {
		ID      string `json:"id"`
		Deleted bool   `json:"deleted"`
	}{id, true})
}

// match maps POST /v1/match: the body is one SWF trace, analyzed under
// the machine options and ranked against the merged corpus in a joint
// Co-plot embedding. The cache key covers the resolved options, the
// sorted corpus entry IDs and the body, so a match is recomputed
// exactly when the corpus it ran against has changed — and two
// replicas holding the same corpus share one cached answer.
func (s *Service) match(r *http.Request, body []byte, o *coplotclient.MatchOptions) ([][]byte, func(context.Context) (*response, error), error) {
	m, err := cliMachine(o.Machine)
	if err != nil {
		return nil, nil, err
	}
	entries := s.mergedEntries(r.Context())
	if len(entries) < 2 {
		return nil, nil, badRequest(fmt.Errorf("corpus has %d entries; need at least 2 to match against", len(entries)))
	}
	blobs := make([][]byte, 0, len(entries)+1)
	for _, e := range entries {
		blobs = append(blobs, []byte(e.ID))
	}
	blobs = append(blobs, body)
	run := func(ctx context.Context) (*response, error) {
		log, err := swf.Parse(bytes.NewReader(body))
		if err != nil {
			return nil, badRequest(err)
		}
		query, err := workload.Compute(o.Name, log, m)
		if err != nil {
			return nil, badRequest(err)
		}
		start := time.Now()
		res, err := corpus.Match(ctx, entries, query, corpus.MatchOptions{
			Seed: o.Seed, Landmarks: o.Landmarks, Par: s.budget, K: o.K,
		})
		if err != nil {
			// Degenerate joint tables are the caller's data, not a
			// server fault.
			var deg *mds.DegenerateInputError
			if errors.As(err, &deg) {
				return nil, degenerate(err)
			}
			return nil, err
		}
		s.corpus.ObserveMatch(time.Since(start))
		data, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		return &response{contentType: "application/json", body: append(data, '\n')}, nil
	}
	return blobs, run, nil
}

// mergedEntries is the cluster-wide corpus view: the local index
// unioned with every reachable peer's, deduplicated by ID, canonical
// order. On a single replica it is just the local index.
func (s *Service) mergedEntries(ctx context.Context) []*corpus.Entry {
	lists := [][]*corpus.Entry{s.corpus.List()}
	for _, peer := range s.peerURL {
		lists = append(lists, s.peerIndex(ctx, peer))
	}
	return corpus.Merge(lists...)
}

// peerTimeout bounds one peer corpus call, matching the artifact
// exchange's default.
func (s *Service) peerTimeout() time.Duration {
	if s.cfg.PeerTimeout > 0 {
		return s.cfg.PeerTimeout
	}
	return cluster.DefaultTimeout
}

// peerIndex fetches one peer's corpus index; unreachable peers degrade
// to nil so the caller serves the reachable view.
func (s *Service) peerIndex(ctx context.Context, peer string) []*corpus.Entry {
	ctx, cancel := context.WithTimeout(ctx, s.peerTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/internal/v1/corpus", nil)
	if err != nil {
		return nil
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var wires []corpus.WireEntry
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(&wires); err != nil {
		return nil
	}
	out := make([]*corpus.Entry, 0, len(wires))
	for _, w := range wires {
		out = append(out, w.Entry())
	}
	return out
}

// peerDelete asks one peer to drop id from its local index, reporting
// whether the peer had it. Unreachable peers report false.
func (s *Service) peerDelete(ctx context.Context, peer, id string) bool {
	ctx, cancel := context.WithTimeout(ctx, s.peerTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, peer+"/internal/v1/corpus/"+id, nil)
	if err != nil {
		return false
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	return resp.StatusCode == http.StatusOK
}

// corpusIndex maps GET /internal/v1/corpus: this replica's own index,
// full wire form, for peers' union-on-read merges. Replica-to-replica
// only — like the artifact exchange, it skips the public envelope.
func (s *Service) corpusIndex(w http.ResponseWriter, r *http.Request) {
	entries := s.corpus.List()
	wires := make([]corpus.WireEntry, 0, len(entries))
	for _, e := range entries {
		wires = append(wires, e.Wire(false))
	}
	if err := writeJSON(w, http.StatusOK, wires); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// corpusPeerDelete maps DELETE /internal/v1/corpus/{id}: drop id from
// this replica's local index. 200 when it was present, 404 otherwise.
func (s *Service) corpusPeerDelete(w http.ResponseWriter, r *http.Request) {
	if s.corpus.Delete(r.PathValue("id")) {
		w.WriteHeader(http.StatusOK)
		return
	}
	w.WriteHeader(http.StatusNotFound)
}
