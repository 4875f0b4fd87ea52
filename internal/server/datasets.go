package server

// The /datasets endpoints: the HTTP face of the continuous curator.
//
//	POST /datasets/{id}        create a curated dataset (JSON AttrSpec schema)
//	POST /datasets/{id}/rows   append a JSONL batch (Idempotency-Key dedupes)
//	GET  /datasets/{id}        rows, staleness, last refit, ε standing
//	GET  /datasets             list curated datasets
//
// Appends are acknowledged only after the batch is fsynced into the
// dataset's row log; background refits then fit and republish models
// without any further client involvement.

import (
	"errors"
	"net/http"
	"sort"

	"privbayes/internal/curator"
	"privbayes/internal/dataset"
)

// requireCurator gates the /datasets handlers.
func (s *Server) requireCurator(w http.ResponseWriter) bool {
	if s.curator == nil {
		writeError(w, http.StatusServiceUnavailable, "curation disabled: no curator directory configured")
		return false
	}
	return true
}

func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	if !s.requireCurator(w) {
		return
	}
	ids := s.curator.List()
	sort.Strings(ids)
	out := make([]curator.Status, 0, len(ids))
	for _, id := range ids {
		if st, err := s.curator.Status(id); err == nil {
			out = append(out, st)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": out})
}

// handleDatasetCreate registers a curated dataset. The body is the JSON
// AttrSpec array also used by POST /fit's schema field.
func (s *Server) handleDatasetCreate(w http.ResponseWriter, r *http.Request) {
	if !s.requireCurator(w) {
		return
	}
	id := r.PathValue("id")
	if !ValidID(id) {
		writeError(w, http.StatusBadRequest, "invalid dataset id %q (want 1-128 chars of [A-Za-z0-9._-])", id)
		return
	}
	var specs []AttrSpec
	if !decodeBody(w, r, &specs) {
		return
	}
	attrs, err := dataset.SchemaFromSpecs(specs)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.curator.Create(id, attrs); err != nil {
		writeError(w, statusFor(err), "%v", err)
		return
	}
	s.logf("created curated dataset %s (%d attributes)", id, len(attrs))
	st, _ := s.curator.Status(id)
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) handleDatasetStatus(w http.ResponseWriter, r *http.Request) {
	if !s.requireCurator(w) {
		return
	}
	st, err := s.curator.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleDatasetRows ingests one JSONL batch into a curated dataset. An
// Idempotency-Key header becomes the batch's durable key: retrying an
// acknowledged append is a no-op, so clients retry ambiguous failures
// without double-counting rows. The 200 response is written only after
// the batch is fsynced to the row log.
func (s *Server) handleDatasetRows(w http.ResponseWriter, r *http.Request) {
	if !s.requireCurator(w) {
		return
	}
	id := r.PathValue("id")
	key := r.Header.Get("Idempotency-Key")
	if key != "" && !ValidID(key) {
		writeError(w, http.StatusBadRequest, "invalid Idempotency-Key %q (want 1-128 chars of [A-Za-z0-9._-])", key)
		return
	}
	attrs, err := s.curator.Attrs(id)
	if err != nil {
		writeError(w, statusFor(err), "%v", err)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.maxBytes)
	batch, err := dataset.ReadJSONL(body, attrs, curator.MaxBatchRows)
	if errors.Is(err, dataset.ErrTooManyRows) {
		writeError(w, http.StatusRequestEntityTooLarge,
			"batch exceeds %d rows; split the append", curator.MaxBatchRows)
		return
	}
	if err != nil {
		writeError(w, statusFor(err), "%v", err)
		return
	}
	if batch.N() == 0 {
		writeError(w, http.StatusBadRequest, "request body has no rows")
		return
	}
	dup, err := s.curator.Append(id, key, batch)
	if err != nil {
		writeError(w, statusFor(err), "%v", err)
		return
	}
	st, _ := s.curator.Status(id)
	writeJSON(w, http.StatusOK, AppendResult{Rows: batch.N(), Duplicate: dup, TotalRows: st.Rows})
}
