package coplotclient

// The corpus and match half of the client: the reference-corpus CRUD
// endpoints and the workload-matching headline. The types here mirror
// the server's public wire forms field for field; the service
// acceptance tests decode live responses through them, so any drift
// fails the repository's own suite.

import (
	"context"
	"encoding/json"
	"net/http"
)

// CorpusEntry is one corpus member, as the /v1/corpus endpoints render
// it.
type CorpusEntry struct {
	// ID is the entry's content-addressed identifier.
	ID string `json:"id"`
	// Name labels the entry in joint embeddings and neighbor lists.
	Name string `json:"name"`
	// Source is "seed" (a paper observation) or "upload".
	Source string `json:"source"`
	// Jobs is the job count of the characterized log.
	Jobs int `json:"jobs"`
	// Vars maps Table-1 variable codes to values; null means the log
	// could not supply the variable.
	Vars map[string]*float64 `json:"vars"`
}

// CorpusIndex is the GET /v1/corpus answer.
type CorpusIndex struct {
	// Entries holds the (cluster-merged) corpus in canonical order.
	Entries []CorpusEntry `json:"entries"`
	// Total is len(Entries).
	Total int `json:"total"`
}

// CorpusAdmit uploads one SWF log: the server analyzes it under the
// machine options and admits it to the corpus under opts.Name
// (required). Re-admitting the same log, name and machine is
// idempotent.
func (c *Client) CorpusAdmit(ctx context.Context, swf []byte, opts CorpusAdmitOptions) (*CorpusEntry, *Meta, error) {
	body, meta, err := c.Do(ctx, http.MethodPost, "/v1/corpus"+Query(opts), "text/plain", swf)
	if err != nil {
		return nil, meta, err
	}
	var e CorpusEntry
	if err := json.Unmarshal(body, &e); err != nil {
		return nil, meta, err
	}
	return &e, meta, nil
}

// CorpusList fetches the corpus index.
func (c *Client) CorpusList(ctx context.Context) (*CorpusIndex, *Meta, error) {
	body, meta, err := c.Do(ctx, http.MethodGet, "/v1/corpus", "", nil)
	if err != nil {
		return nil, meta, err
	}
	var idx CorpusIndex
	if err := json.Unmarshal(body, &idx); err != nil {
		return nil, meta, err
	}
	return &idx, meta, nil
}

// CorpusGet fetches one corpus entry by ID.
func (c *Client) CorpusGet(ctx context.Context, id string) (*CorpusEntry, *Meta, error) {
	body, meta, err := c.Do(ctx, http.MethodGet, "/v1/corpus/"+id, "", nil)
	if err != nil {
		return nil, meta, err
	}
	var e CorpusEntry
	if err := json.Unmarshal(body, &e); err != nil {
		return nil, meta, err
	}
	return &e, meta, nil
}

// CorpusDelete removes one corpus entry, cluster-wide.
func (c *Client) CorpusDelete(ctx context.Context, id string) (*Meta, error) {
	_, meta, err := c.Do(ctx, http.MethodDelete, "/v1/corpus/"+id, "", nil)
	return meta, err
}

// Neighbor is one ranked corpus entry of a match result.
type Neighbor struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Source string `json:"source"`
	Jobs   int    `json:"jobs"`
	// Distance is the Co-plot map distance to the query in the
	// gauge-canonicalized joint embedding.
	Distance float64 `json:"distance"`
	// Deltas holds, per variable code, the query's z-score minus this
	// neighbor's in the joint normalization.
	Deltas map[string]float64 `json:"deltas"`
}

// MatchPoint is one observation of the joint embedding.
type MatchPoint struct {
	Name string  `json:"name"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
}

// MatchArrow is one variable arrow of the joint embedding.
type MatchArrow struct {
	Name string  `json:"name"`
	DX   float64 `json:"dx"`
	DY   float64 `json:"dy"`
	Corr float64 `json:"corr"`
}

// MatchResult is the POST /v1/match answer: the ranked neighbors plus
// the joint embedding they were ranked in.
type MatchResult struct {
	Query      string       `json:"query"`
	CorpusSize int          `json:"corpus_size"`
	Alienation float64      `json:"alienation"`
	Stress     float64      `json:"stress"`
	Neighbors  []Neighbor   `json:"neighbors"`
	Points     []MatchPoint `json:"points"`
	Arrows     []MatchArrow `json:"arrows"`
}

// Match uploads one SWF trace and ranks the corpus against it in a
// joint Co-plot embedding. The ranking is deterministic: the same
// corpus and trace produce byte-identical results on any replica at
// any worker count (MatchRaw exposes the exact bytes).
func (c *Client) Match(ctx context.Context, swf []byte, opts MatchOptions) (*MatchResult, *Meta, error) {
	body, meta, err := c.MatchRaw(ctx, swf, opts)
	if err != nil {
		return nil, meta, err
	}
	var res MatchResult
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, meta, err
	}
	return &res, meta, nil
}

// MatchRaw is Match without decoding: the response's exact bytes, for
// byte-identity comparisons across replicas and restarts.
func (c *Client) MatchRaw(ctx context.Context, swf []byte, opts MatchOptions) ([]byte, *Meta, error) {
	return c.Do(ctx, http.MethodPost, "/v1/match"+Query(opts), "text/plain", swf)
}
