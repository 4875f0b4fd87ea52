package server

import (
	"context"
	"fmt"
	"net/http"
	"net/url"

	"privbayes/internal/core"
	"privbayes/internal/infer"
)

// QueryRequest is the body of POST /models/{id}/query — the wire form
// of the v2 query AST (core.Query) plus execution knobs. Kind is one of
// "marginal", "conditional", "prob" or "count".
type QueryRequest struct {
	Kind  string           `json:"kind"`
	Attrs []core.AttrRef   `json:"attrs,omitempty"`
	Where []core.Predicate `json:"where,omitempty"`
	// N scales a count answer: the expected count among N rows.
	N int `json:"n,omitempty"`
	// MaxCells bounds the intermediate inference factor; it is clamped
	// to the server's ceiling (core.DefaultInferenceCells), so clients
	// can only tighten the bound, never lift it.
	MaxCells int `json:"max_cells,omitempty"`
	// Parallelism asks for up to this many workers from the server's
	// budget; 0 accepts the server default.
	Parallelism int `json:"parallelism,omitempty"`
}

// queryKindFromWire maps a wire kind name to the AST discriminator.
func queryKindFromWire(kind string) (core.QueryKind, error) {
	switch kind {
	case "marginal":
		return core.QueryMarginal, nil
	case "conditional":
		return core.QueryConditional, nil
	case "prob":
		return core.QueryProb, nil
	case "count":
		return core.QueryCount, nil
	default:
		return 0, fmt.Errorf("unknown query kind %q (want marginal, conditional, prob or count)", kind)
	}
}

// handleQuery answers an exact query against a registered model through
// the variable-elimination engine (core.Model.Query) — no sampling, no
// privacy cost, since the model is the ε-DP release itself. Compile
// errors (unknown attributes, malformed ASTs) map to 400; queries that
// are well-formed but unanswerable — an over-cap intermediate factor,
// conditioning on zero-probability evidence — map to 422.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	model, meta, err := s.registry.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), "%v", err)
		return
	}
	var req QueryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if res := s.answerQuery(w, r, model, req); res != nil {
		w.Header().Set("X-Privbayes-Model", meta.ID)
		writeJSON(w, http.StatusOK, res)
	}
}

// marginalRequest is the body of POST /models/{id}/marginal.
type marginalRequest struct {
	// Attrs names the queried attributes, in result order.
	Attrs []string `json:"attrs"`
	// MaxCells bounds the intermediate inference factor, as
	// QueryRequest.MaxCells does.
	MaxCells int `json:"max_cells"`
}

// handleMarginal is /query's marginal case in the v1 wire form: the
// request becomes a "marginal" QueryRequest and answers through
// answerQuery — admission and shedding included — so its answers are
// bit-identical to POST /models/{id}/query's at any granted worker
// count.
func (s *Server) handleMarginal(w http.ResponseWriter, r *http.Request) {
	model, _, err := s.registry.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), "%v", err)
		return
	}
	var req marginalRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Attrs) == 0 {
		writeError(w, http.StatusBadRequest, "attrs must name at least one attribute")
		return
	}
	q := QueryRequest{Kind: "marginal", Attrs: core.Marginal(req.Attrs...).Attrs, MaxCells: req.MaxCells}
	if res := s.answerQuery(w, r, model, q); res != nil {
		writeJSON(w, http.StatusOK, MarginalResult{Attrs: req.Attrs, Dims: res.Dims, P: res.P})
	}
}

// answerQuery runs req against model: the wire kind, the cell-cap
// clamp, admission on the shared worker budget, Model.Query at the
// granted worker count, and the query metrics. A nil result means it
// has written the error response.
func (s *Server) answerQuery(w http.ResponseWriter, r *http.Request, model *core.Model, req QueryRequest) *core.QueryResult {
	kind, err := queryKindFromWire(req.Kind)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	// The cells bound is a memory guard: honor a client's tighter bound,
	// never a looser one.
	if req.MaxCells <= 0 || req.MaxCells > core.DefaultInferenceCells {
		req.MaxCells = core.DefaultInferenceCells
	}
	// Inference runs on workers from the shared budget, like synthesis,
	// and sheds under overload — a queued query only grows the client's
	// latency past its deadline anyway.
	got, release, ok := s.admit(w, r, req.Parallelism)
	if !ok {
		return nil
	}
	var stats infer.Stats
	res, err := model.Query(r.Context(), core.Query{Kind: kind, Attrs: req.Attrs, Where: req.Where, N: req.N},
		core.QueryMaxCells(req.MaxCells), core.QueryParallelism(got), core.QueryStats(&stats))
	release()
	s.metrics.noteQuery(req.Kind, stats, err)
	if err != nil {
		writeError(w, statusFor(err), "%v", err)
		return nil
	}
	return res
}

// Query answers an exact query against a registered model (see
// core.Model.Query and POST /models/{id}/query).
func (c *Client) Query(ctx context.Context, id string, qr QueryRequest) (core.QueryResult, error) {
	var out core.QueryResult
	_, err := c.send(ctx, call{method: http.MethodPost, path: "/models/" + url.PathEscape(id) + "/query", in: qr, out: &out})
	return out, err
}
