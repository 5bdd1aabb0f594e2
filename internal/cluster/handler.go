package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"net/http"

	"coplot/internal/store"
)

// Handler serves the replica-to-replica artifact exchange over a local
// backend. It deliberately operates on the LOCAL backend, not the Peer
// tier above it: a peer asking this replica for an artifact must see
// only what is resident here, never trigger a recursive fetch back
// into the ring.
type Handler struct {
	local    store.Backend
	codec    store.Codec
	maxBytes int64
}

// NewHandler builds the peer-fill endpoint over local and its codec.
// maxBytes caps accepted back-fill bodies (non-positive means
// DefaultMaxFetchBytes). Mount it on a Go 1.22 ServeMux at
// "GET /internal/v1/artifact/{key}" and "PUT /internal/v1/artifact/{key}"
// so the {key} path value resolves.
func NewHandler(local store.Backend, c store.Codec, maxBytes int64) *Handler {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxFetchBytes
	}
	return &Handler{local: local, codec: c, maxBytes: maxBytes}
}

// ServeHTTP implements http.Handler. GET answers the artifact's wire
// bytes with the HeaderKey echo and HeaderSum checksum, or 404 when
// the key is not resident (or not byte-renderable — to a peer those
// are the same: nothing to fetch). PUT verifies the checksum, decodes,
// and stores the artifact; a body that fails either check is rejected
// with 400 and never touches the backend — the wire analogue of the
// disk tier refusing a corrupt record.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if key == "" {
		http.NotFound(w, r)
		return
	}
	switch r.Method {
	case http.MethodGet:
		h.get(w, r, key)
	case http.MethodPut:
		h.put(w, r, key)
	default:
		w.Header().Set("Allow", "GET, PUT")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// get serves one resident artifact.
func (h *Handler) get(w http.ResponseWriter, r *http.Request, key string) {
	v, ok := h.local.Get(key)
	if !ok {
		http.NotFound(w, r)
		return
	}
	data, ok := h.codec.Encode(v)
	if !ok {
		// Memory-only artifact: resident but not byte-renderable, so it
		// cannot travel. The peer treats this as a miss and recomputes.
		http.NotFound(w, r)
		return
	}
	sum := sha256.Sum256(data)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(HeaderKey, key)
	w.Header().Set(HeaderSum, hex.EncodeToString(sum[:]))
	w.Write(data)
}

// put accepts one back-filled artifact.
func (h *Handler) put(w http.ResponseWriter, r *http.Request, key string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, h.maxBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, "artifact too large", http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	sum := sha256.Sum256(body)
	if got := r.Header.Get(HeaderSum); got != hex.EncodeToString(sum[:]) {
		http.Error(w, "checksum mismatch", http.StatusBadRequest)
		return
	}
	v, err := h.codec.Decode(body)
	if err != nil {
		http.Error(w, "undecodable artifact: "+err.Error(), http.StatusBadRequest)
		return
	}
	h.local.Put(key, v, int64(len(body)))
	w.WriteHeader(http.StatusNoContent)
}
