package server

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"

	"privbayes/internal/core"
	"privbayes/internal/dataset"
)

// ModelMeta is the registry's public view of one model: identity plus
// the model's own introspection summary. Everything is derived from the
// ε-DP release, so listing it costs no privacy.
type ModelMeta struct {
	ID string `json:"id"`
	// Epsilon is the budget the model was fitted under (artifact
	// metadata; 0 when the artifact did not record it).
	Epsilon float64 `json:"epsilon"`
	// Source records where the model came from: "dir", "upload", "fit"
	// or "curator" (a curator refit).
	Source string `json:"source"`
	core.ModelInfo
}

// entry pairs the live model with its metadata and, per row format,
// its synthesis cell table, built by the first request for it.
type entry struct {
	meta  ModelMeta
	model *core.Model
	cells [2]func() (*dataset.RowCells, error) // indexed by dataset.Format
}

// newRowCells builds a model's cell table; tests count its calls.
var newRowCells = dataset.NewRowCells

// Registry is the concurrency-safe model store behind /models: models
// load from a directory at startup and arrive at runtime via upload or
// curator fits. Reads (serving) vastly outnumber writes, hence RWMutex.
type Registry struct {
	mu     sync.RWMutex
	models map[string]entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{models: map[string]entry{}}
}

// idPattern keeps model and dataset ids path- and URL-safe.
var idPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// ValidID reports whether s is usable as a model or dataset id.
func ValidID(s string) bool { return idPattern.MatchString(s) }

// ErrNotFound is returned for unknown model ids.
var ErrNotFound = errors.New("server: model not found")

// ErrExists is returned when an id is already registered.
var ErrExists = errors.New("server: model id already registered")

// LoadDir loads every *.json model artifact in dir (non-recursive),
// keyed by file basename, skipping any file whose absolute path is in
// exclude (the serving layer excludes its ledger file). Files that fail
// validation are skipped with their errors collected, so one corrupt
// artifact cannot keep the daemon from serving the rest.
func (r *Registry) LoadDir(dir string, exclude ...string) (loaded int, errs []error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return 0, []error{err}
	}
	sort.Strings(names)
	skip := make(map[string]bool, len(exclude))
	for _, e := range exclude {
		if e != "" {
			skip[e] = true
		}
	}
	for _, name := range names {
		if abs, err := filepath.Abs(name); err == nil && skip[abs] {
			continue
		}
		id := strings.TrimSuffix(filepath.Base(name), ".json")
		if !ValidID(id) {
			errs = append(errs, fmt.Errorf("server: %s: invalid model id %q", name, id))
			continue
		}
		f, err := os.Open(name)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		err = r.Add(id, "dir", f)
		f.Close()
		if err != nil {
			errs = append(errs, fmt.Errorf("server: %s: %w", name, err))
			continue
		}
		loaded++
	}
	return loaded, errs
}

// Add reads one SaveModel artifact and registers it. The artifact is
// fully revalidated (core.ReadModelJSON); malformed input returns an
// error wrapping core.ErrInvalidModel.
func (r *Registry) Add(id, source string, artifact io.Reader) error {
	if !ValidID(id) {
		return fmt.Errorf("server: invalid model id %q", id)
	}
	m, eps, err := core.ReadModelJSON(artifact)
	if err != nil {
		return err
	}
	return r.Put(id, source, m, eps)
}

// Put registers an already-validated model.
func (r *Registry) Put(id, source string, m *core.Model, epsilon float64) error {
	if !ValidID(id) {
		return fmt.Errorf("server: invalid model id %q", id)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.models[id]; dup {
		return fmt.Errorf("%w: %q", ErrExists, id)
	}
	e := entry{
		meta:  ModelMeta{ID: id, Epsilon: epsilon, Source: source, ModelInfo: m.Info()},
		model: m,
	}
	for f := range e.cells {
		e.cells[f] = sync.OnceValues(func() (*dataset.RowCells, error) { return newRowCells(m.Attrs, dataset.Format(f)) })
	}
	r.models[id] = e
	return nil
}

// Cells returns the model's synthesis cell table in format f. The
// first call for a format builds it; every later request shares it
// read-only, so a stream pays only for its own write buffer.
func (r *Registry) Cells(id string, f dataset.Format) (*dataset.RowCells, error) {
	r.mu.RLock()
	e, ok := r.models[id]
	r.mu.RUnlock()
	switch {
	case !ok:
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	case f < 0 || int(f) >= len(e.cells):
		return nil, fmt.Errorf("server: unknown format %v", f)
	}
	return e.cells[f]()
}

// Get returns the model and its metadata.
func (r *Registry) Get(id string) (*core.Model, ModelMeta, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.models[id]
	if !ok {
		return nil, ModelMeta{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return e.model, e.meta, nil
}

// List returns metadata for every model, sorted by id.
func (r *Registry) List() []ModelMeta {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]ModelMeta, 0, len(r.models))
	for _, e := range r.models {
		out = append(out, e.meta)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of registered models.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.models)
}
