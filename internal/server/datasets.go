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
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"sort"

	"privbayes/internal/curator"
	"privbayes/internal/dataset"
)

// spoolCSV streams an upload to a temporary file so fitting can scan it
// in bounded chunks. The caller removes the returned path.
func (s *Server) spoolCSV(r io.Reader) (string, error) {
	f, err := os.CreateTemp("", "privbayes-fit-*.csv")
	if err != nil {
		return "", err
	}
	path := f.Name()
	_, err = io.Copy(f, r)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return "", err
	}
	return path, nil
}

// probeCSV validates a spooled upload's header and first row without
// scanning the rest, so malformed uploads reject before any fit work.
func probeCSV(path string, attrs []dataset.Attribute) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc, err := dataset.ScanCSV(f, attrs, 1)
	if err != nil {
		return err
	}
	if _, err := sc.Next(); err != nil {
		if err == io.EOF {
			return errors.New("data part has no rows")
		}
		return err
	}
	return nil
}

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
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&specs); err != nil {
		writeError(w, http.StatusBadRequest, "schema body: %v", err)
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

// appendResult is the response of POST /datasets/{id}/rows.
type appendResult struct {
	// Rows is the batch size the server decoded from the request.
	Rows int `json:"rows"`
	// Duplicate reports an idempotent replay: the batch's key was
	// already acknowledged, nothing was appended, nothing double-counts.
	Duplicate bool `json:"duplicate"`
	// TotalRows is the dataset's row count after the append.
	TotalRows int64 `json:"total_rows"`
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
	writeJSON(w, http.StatusOK, appendResult{Rows: batch.N(), Duplicate: dup, TotalRows: st.Rows})
}
