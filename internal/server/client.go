package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"mime/multipart"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"

	"privbayes/internal/accountant"
	"privbayes/internal/curator"
	"privbayes/internal/telemetry"
)

// Client talks to a privbayesd instance. It is the programmatic
// counterpart of the HTTP API: examples, the serving benchmarks, and
// downstream Go consumers use it instead of hand-rolled requests.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8131".
	BaseURL string
	// HTTP is the underlying client; nil selects http.DefaultClient.
	HTTP *http.Client
	// Retry is the backoff policy for transient failures (network
	// errors, 429/502/503/504). The zero value disables retries; see
	// DefaultRetryPolicy. Requests whose bodies cannot be replayed
	// (non-seekable uploads) are never retried regardless of policy.
	Retry RetryPolicy
	// Logger, when non-nil, receives one structured line per retry
	// attempt: the failure being retried (status or transport error),
	// the backoff chosen, and any server Retry-After hint. Nil keeps
	// the client silent.
	Logger *slog.Logger
}

// NewClient returns a client for the server at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// APIError is a decoded non-2xx server response. Error() keeps the
// historical "server: <status>[: <message>]" text; the fields expose
// what the text flattens — in particular RequestID, the server's
// X-Privbayes-Request-Id echo, which is the handle to grep the
// daemon's logs for the exact request that failed. Unwrap with
// errors.As:
//
//	var apiErr *server.APIError
//	if errors.As(err, &apiErr) { correlate(apiErr.RequestID) }
type APIError struct {
	// StatusCode is the numeric HTTP status, e.g. 429.
	StatusCode int
	// Status is the full status line, e.g. "429 Too Many Requests".
	Status string
	// Message is the server's error body, when it sent one.
	Message string
	// RequestID is the X-Privbayes-Request-Id the daemon assigned (or
	// accepted) for the failed request; empty when talking to servers
	// that predate request IDs.
	RequestID string
}

func (e *APIError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("server: %s: %s", e.Status, e.Message)
	}
	return fmt.Sprintf("server: %s", e.Status)
}

// apiError decodes a non-2xx response into an *APIError.
func apiError(resp *http.Response) error {
	defer resp.Body.Close()
	e := &APIError{
		StatusCode: resp.StatusCode,
		Status:     resp.Status,
		RequestID:  resp.Header.Get(telemetry.RequestIDHeader),
	}
	var body errorBody
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(raw, &body) == nil && body.Error != "" {
		e.Message = body.Error
	}
	return e
}

// call is one API request, as send builds, sends and reads it.
type call struct {
	method, path string
	// in, when set, is the request body, marshaled as JSON.
	in any
	// body, when set, is the caller's request body: replayed on retry
	// from the offset it had when the call began if it seeks, sent
	// once if it does not.
	body        io.Reader
	contentType string
	// head and tail, when set, frame each attempt's body: Fit's
	// multipart form around the data.
	head, tail []byte
	// key is the Idempotency-Key header; empty sends none.
	key string
	// accept lists the statuses the call succeeds on; nil means 200.
	accept []int
	// out receives the decoded JSON reply; nil hands the reply back
	// unconsumed.
	out any
}

// send is the one request path behind every Client method: it builds
// each attempt's request, retries through do, and returns any status
// the call does not accept as an *APIError. When it returns, the
// transport reads no more of a caller's body that seeks.
func (c *Client) send(ctx context.Context, k call) (*http.Response, error) {
	var raw []byte
	contentType := k.contentType
	if k.in != nil {
		var err error
		if raw, err = json.Marshal(k.in); err != nil {
			return nil, err
		}
		contentType = "application/json"
	}
	attempts := c.Retry.MaxAttempts
	var rb *replayBody
	if k.body != nil {
		var err error
		if rb, err = newReplayBody(k); err != nil {
			return nil, err
		}
		if rb.seeker == nil {
			attempts = 1 // a replay would send the body truncated
		} else {
			// Only a seekable body is waited for: a read of a pipe may
			// never return.
			defer rb.retire()
		}
	}
	resp, err := c.do(ctx, attempts, func() (*http.Request, error) {
		// A JSON body is a fresh bytes.Reader per attempt: net/http sets
		// its Content-Length and GetBody itself.
		var body io.Reader
		if raw != nil {
			body = bytes.NewReader(raw)
		}
		req, err := http.NewRequestWithContext(ctx, k.method, c.BaseURL+k.path, body)
		if err != nil {
			return nil, err
		}
		if rb != nil {
			if req.Body, err = rb.next(); err != nil {
				return nil, err
			}
			if rb.seeker != nil {
				req.ContentLength, req.GetBody = rb.size, rb.next
			}
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if k.key != "" {
			req.Header.Set("Idempotency-Key", k.key)
		}
		return req, nil
	})
	if err != nil {
		return nil, err
	}
	accept := k.accept
	if accept == nil {
		accept = []int{http.StatusOK}
	}
	if !slices.Contains(accept, resp.StatusCode) {
		return nil, apiError(resp)
	}
	if k.out == nil {
		return resp, nil
	}
	defer resp.Body.Close()
	return resp, json.NewDecoder(resp.Body).Decode(k.out)
}

// replayBody hands out the caller's request body one attempt at a
// time, framed by head and tail. A body that seeks starts every attempt
// at the offset it had when the call began; one that does not (seeker
// nil) has a single attempt.
type replayBody struct {
	mu         sync.Mutex // held across each read of r
	attempt    int        // the attempt whose reads may proceed
	r          io.Reader
	head, tail []byte
	seeker     io.Seeker
	start      int64
	size       int64 // an attempt's framed length, when r seeks
}

func newReplayBody(k call) (*replayBody, error) {
	rb := &replayBody{r: k.body, head: k.head, tail: k.tail}
	s, ok := k.body.(io.Seeker)
	if !ok {
		return rb, nil
	}
	start, err := s.Seek(0, io.SeekCurrent)
	if err != nil {
		return rb, nil // an *os.File on a pipe, say
	}
	end, err := s.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	rb.seeker, rb.start, rb.size = s, start, int64(len(k.head)+len(k.tail))+end-start
	return rb, nil
}

// next retires the previous attempt and returns a fresh body. It is
// also the request's GetBody, so net/http can replay a seekable body on
// a new connection or through a 307/308 redirect. The body's Close is a
// no-op: net/http closes a request body that is an io.Closer, and the
// caller's reader (an *os.File, say) is the caller's to close.
func (rb *replayBody) next() (io.ReadCloser, error) {
	rb.retire()
	if rb.seeker != nil {
		if _, err := rb.seeker.Seek(rb.start, io.SeekStart); err != nil {
			return nil, err
		}
	}
	r := attemptReader{rb, rb.attempt}
	return io.NopCloser(io.MultiReader(bytes.NewReader(rb.head), r, bytes.NewReader(rb.tail))), nil
}

// retire ends the current attempt's reads of the caller's body, once a
// read still running returns: net/http may read a request body after
// Do returns, and the body must not move under it.
func (rb *replayBody) retire() {
	rb.mu.Lock()
	rb.attempt++
	rb.mu.Unlock()
}

// attemptReader reads the caller's body for attempt n only.
type attemptReader struct {
	rb *replayBody
	n  int
}

func (a attemptReader) Read(p []byte) (int, error) {
	a.rb.mu.Lock()
	defer a.rb.mu.Unlock()
	if a.n != a.rb.attempt {
		return 0, http.ErrBodyReadAfterClose
	}
	return a.rb.r.Read(p)
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	_, err := c.send(ctx, call{method: http.MethodGet, path: path, out: out})
	return err
}

// Health checks liveness.
func (c *Client) Health(ctx context.Context) error {
	var out map[string]any
	return c.getJSON(ctx, "/healthz", &out)
}

// Models lists the registered models.
func (c *Client) Models(ctx context.Context) ([]ModelMeta, error) {
	var out struct {
		Models []ModelMeta `json:"models"`
	}
	err := c.getJSON(ctx, "/models", &out)
	return out.Models, err
}

// Model fetches one model's metadata.
func (c *Client) Model(ctx context.Context, id string) (ModelMeta, error) {
	var out ModelMeta
	err := c.getJSON(ctx, "/models/"+url.PathEscape(id), &out)
	return out, err
}

// Budget returns the per-dataset privacy ledger.
func (c *Client) Budget(ctx context.Context) (map[string]accountant.Entry, error) {
	var out struct {
		Datasets map[string]accountant.Entry `json:"datasets"`
	}
	err := c.getJSON(ctx, "/budget", &out)
	return out.Datasets, err
}

// Upload registers a SaveModel artifact read from r. Empty id lets the
// server assign one. Uploads retry only when the artifact seeks; a
// one-shot stream gets a single attempt.
func (c *Client) Upload(ctx context.Context, id string, artifact io.Reader) (ModelMeta, error) {
	path := "/models"
	if id != "" {
		path += "?id=" + url.QueryEscape(id)
	}
	var meta ModelMeta
	_, err := c.send(ctx, call{method: http.MethodPost, path: path, body: artifact,
		contentType: "application/json", accept: []int{http.StatusCreated}, out: &meta})
	return meta, err
}

// SynthesizeRequest parameterizes a synthesis stream.
type SynthesizeRequest struct {
	// N is the number of rows (required).
	N int
	// Seed pins the RNG stream; nil lets the server draw one (echoed in
	// the response's Seed).
	Seed *int64
	// Format is "csv" (default) or "jsonl".
	Format string
	// Parallelism asks for up to this many workers from the server's
	// budget; 0 accepts the server default.
	Parallelism int
}

// SynthesisStream is a live streaming response: read Body incrementally
// (rows arrive in chunks as the server generates them) and Close when
// done.
type SynthesisStream struct {
	// Body streams the csv/jsonl payload.
	Body io.ReadCloser
	// Seed is the RNG seed the server used — pass it back via
	// SynthesizeRequest.Seed to reproduce the stream byte for byte.
	Seed int64
}

func (s *SynthesisStream) Close() error { return s.Body.Close() }

// Synthesize opens a synthesis stream from a registered model.
func (c *Client) Synthesize(ctx context.Context, id string, sr SynthesizeRequest) (*SynthesisStream, error) {
	q := url.Values{}
	q.Set("n", strconv.Itoa(sr.N))
	if sr.Seed != nil {
		q.Set("seed", strconv.FormatInt(*sr.Seed, 10))
	}
	if sr.Format != "" {
		q.Set("format", sr.Format)
	}
	if sr.Parallelism > 0 {
		q.Set("parallelism", strconv.Itoa(sr.Parallelism))
	}
	resp, err := c.send(ctx, call{method: http.MethodGet,
		path: "/models/" + url.PathEscape(id) + "/synthesize?" + q.Encode()})
	if err != nil {
		return nil, err
	}
	seed, _ := strconv.ParseInt(resp.Header.Get("X-Privbayes-Seed"), 10, 64)
	return &SynthesisStream{Body: resp.Body, Seed: seed}, nil
}

// Marginal asks for the exact marginal distribution over the named
// attributes, answered by Model.Query on the server. maxCells 0
// accepts the server default bound.
func (c *Client) Marginal(ctx context.Context, id string, attrs []string, maxCells int) (MarginalResult, error) {
	var out MarginalResult
	_, err := c.send(ctx, call{method: http.MethodPost, path: "/models/" + url.PathEscape(id) + "/marginal",
		in: marginalRequest{Attrs: attrs, MaxCells: maxCells}, out: &out})
	return out, err
}

// MarginalResult is a dense marginal distribution over the requested
// attributes, row-major with the last attribute varying fastest.
type MarginalResult struct {
	Attrs []string  `json:"attrs"`
	Dims  []int     `json:"dims"`
	P     []float64 `json:"p"`
}

// FitRequest parameterizes a curator-mode fit.
type FitRequest struct {
	// DatasetID keys the privacy ledger: every fit against the same id
	// composes sequentially toward its budget.
	DatasetID string
	// Epsilon is the total DP budget of this fit.
	Epsilon float64
	// ModelID optionally names the resulting model.
	ModelID string
	// Seed pins the fit RNG; nil lets the server draw one.
	Seed *int64
	// Parallelism asks for up to this many fit workers.
	Parallelism int
	// Schema describes the CSV columns.
	Schema []AttrSpec
	// Data streams the CSV (header row first). When it also implements
	// io.Seeker (bytes.Reader, *os.File), the upload can be replayed —
	// from the offset Data had when Fit was called — and the fit
	// becomes retryable under the client's RetryPolicy. The Client
	// never closes Data.
	Data io.Reader
	// IdempotencyKey makes the fit safe to retry: the server charges ε
	// exactly once per key, even across its own restarts. Empty with
	// retries enabled, the Client generates one, so an automatic retry
	// after an ambiguous network failure can never double-charge.
	IdempotencyKey string
}

// Fit uploads a dataset and fits a model under the dataset's privacy
// budget. The upload is streamed — schema and parameters first, then
// the CSV — so large datasets never buffer client-side.
func (c *Client) Fit(ctx context.Context, fr FitRequest) (ModelMeta, error) {
	head, tail, contentType, err := fitFraming(fr)
	if err != nil {
		return ModelMeta{}, err
	}
	key := fr.IdempotencyKey
	if key == "" && c.Retry.enabled() {
		key = newIdempotencyKey()
	}
	// 201: the fit ran here. 200: an idempotent replay of a fit a
	// previous attempt already completed.
	var meta ModelMeta
	_, err = c.send(ctx, call{method: http.MethodPost, path: "/fit", body: fr.Data, head: head, tail: tail,
		contentType: contentType, key: key, accept: []int{http.StatusCreated, http.StatusOK}, out: &meta})
	return meta, err
}

// fitFraming lays out the multipart form POST /fit reads — every scalar
// and the schema, then the data part, which must come last — and
// returns the form's bytes before and after the data, and its content
// type.
func fitFraming(fr FitRequest) (head, tail []byte, contentType string, err error) {
	schema, err := json.Marshal(fr.Schema)
	if err != nil {
		return nil, nil, "", err
	}
	// Writes to a bytes.Buffer cannot fail.
	var form bytes.Buffer
	mw := multipart.NewWriter(&form)
	mw.WriteField("dataset_id", fr.DatasetID)
	mw.WriteField("epsilon", strconv.FormatFloat(fr.Epsilon, 'g', -1, 64))
	if fr.ModelID != "" {
		mw.WriteField("model_id", fr.ModelID)
	}
	if fr.Seed != nil {
		mw.WriteField("seed", strconv.FormatInt(*fr.Seed, 10))
	}
	if fr.Parallelism > 0 {
		mw.WriteField("parallelism", strconv.Itoa(fr.Parallelism))
	}
	mw.WriteField("schema", string(schema))
	mw.CreateFormFile("data", "data.csv")
	n := form.Len()
	mw.Close()
	raw := form.Bytes()
	return raw[:n], raw[n:], mw.FormDataContentType(), nil
}

// CreateDataset registers a curated dataset for continuous ingest. The
// schema is fixed at creation; every appended batch must match it.
func (c *Client) CreateDataset(ctx context.Context, id string, schema []AttrSpec) (curator.Status, error) {
	var st curator.Status
	_, err := c.send(ctx, call{method: http.MethodPost, path: "/datasets/" + url.PathEscape(id),
		in: schema, accept: []int{http.StatusCreated}, out: &st})
	return st, err
}

// AppendResult reports an acknowledged row append: the response of
// POST /datasets/{id}/rows.
type AppendResult struct {
	// Rows is the number of rows the server decoded from this batch.
	Rows int `json:"rows"`
	// Duplicate reports an idempotent replay: the key was already
	// acknowledged, nothing was appended again, nothing double-counts.
	Duplicate bool `json:"duplicate"`
	// TotalRows is the dataset's row count after the append.
	TotalRows int64 `json:"total_rows"`
}

// AppendRows appends one JSONL batch (one object per line, keyed by
// attribute name) to a curated dataset. A non-empty key makes the
// append idempotent; empty with retries enabled, the Client generates
// one so an automatic retry after an ambiguous network failure can
// never double-ingest the batch. A success return means the batch is
// fsynced into the dataset's crash-safe row log. Rows that seek are
// replayed on retry from the offset they had at the call; the Client
// never closes them.
func (c *Client) AppendRows(ctx context.Context, id, key string, rows io.Reader) (AppendResult, error) {
	if key == "" && c.Retry.enabled() {
		key = newIdempotencyKey()
	}
	var out AppendResult
	_, err := c.send(ctx, call{method: http.MethodPost, path: "/datasets/" + url.PathEscape(id) + "/rows",
		body: rows, contentType: "application/jsonl", key: key, out: &out})
	return out, err
}

// DatasetStatus fetches a curated dataset's ingest and refit standing.
func (c *Client) DatasetStatus(ctx context.Context, id string) (curator.Status, error) {
	var st curator.Status
	err := c.getJSON(ctx, "/datasets/"+url.PathEscape(id), &st)
	return st, err
}

// Datasets lists the curated datasets.
func (c *Client) Datasets(ctx context.Context) ([]curator.Status, error) {
	var out struct {
		Datasets []curator.Status `json:"datasets"`
	}
	err := c.getJSON(ctx, "/datasets", &out)
	return out.Datasets, err
}
