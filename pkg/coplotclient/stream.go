package coplotclient

// The streaming half of the client. Stream snapshots are served by the
// stateful /v1/stream endpoints; the snapshot type here mirrors the
// server's JSON rendering of a live stream's latest embedding.

import (
	"context"
	"encoding/json"
	"net/http"
)

// StreamPoint is one observation of a snapshot's embedding.
type StreamPoint struct {
	Name string  `json:"name"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	Jobs int     `json:"jobs"`
}

// StreamArrow is one variable arrow of a snapshot's embedding.
type StreamArrow struct {
	Name string  `json:"name"`
	DX   float64 `json:"dx"`
	DY   float64 `json:"dy"`
	Corr float64 `json:"corr"`
}

// StreamDrift is one drift threshold crossing of a snapshot.
type StreamDrift struct {
	Kind      string  `json:"kind"`
	Name      string  `json:"name"`
	Delta     float64 `json:"delta"`
	Threshold float64 `json:"threshold"`
}

// StreamSnapshot is one version of a live stream's embedding, as the
// append and get endpoints answer it.
type StreamSnapshot struct {
	Stream       string        `json:"stream"`
	Version      uint64        `json:"version"`
	Observations int           `json:"observations"`
	Jobs         int           `json:"jobs"`
	Status       string        `json:"status"`
	Error        string        `json:"error,omitempty"`
	Warm         bool          `json:"warm"`
	Reanchor     string        `json:"reanchor,omitempty"`
	Iterations   int           `json:"iterations,omitempty"`
	Alienation   float64       `json:"alienation,omitempty"`
	Stress       float64       `json:"stress,omitempty"`
	Points       []StreamPoint `json:"points,omitempty"`
	Arrows       []StreamArrow `json:"arrows,omitempty"`
	Pending      []string      `json:"pending,omitempty"`
	Drift        []StreamDrift `json:"drift,omitempty"`
}

// StreamAppend folds an SWF chunk into stream id, creating the stream
// on first use with the request's options, and returns the new
// snapshot.
func (c *Client) StreamAppend(ctx context.Context, id string, chunk []byte, opts StreamOptions) (*StreamSnapshot, *Meta, error) {
	body, meta, err := c.Do(ctx, http.MethodPost, "/v1/stream/"+id+"/append"+Query(opts), "text/plain", chunk)
	if err != nil {
		return nil, meta, err
	}
	var snap StreamSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, meta, err
	}
	return &snap, meta, nil
}

// StreamGet fetches stream id's latest snapshot.
func (c *Client) StreamGet(ctx context.Context, id string) (*StreamSnapshot, *Meta, error) {
	body, meta, err := c.Do(ctx, http.MethodGet, "/v1/stream/"+id, "", nil)
	if err != nil {
		return nil, meta, err
	}
	var snap StreamSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, meta, err
	}
	return &snap, meta, nil
}

// StreamDelete drops stream id.
func (c *Client) StreamDelete(ctx context.Context, id string) (*Meta, error) {
	_, meta, err := c.Do(ctx, http.MethodDelete, "/v1/stream/"+id, "", nil)
	return meta, err
}

// Streams lists the registered stream ids, sorted.
func (c *Client) Streams(ctx context.Context) ([]string, *Meta, error) {
	body, meta, err := c.Do(ctx, http.MethodGet, "/v1/streams", "", nil)
	if err != nil {
		return nil, meta, err
	}
	var out struct {
		Streams []string `json:"streams"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, meta, err
	}
	return out.Streams, meta, nil
}
