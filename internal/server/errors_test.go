package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"mime/multipart"
	"net/http"
	"strings"
	"testing"

	"privbayes/internal/accountant"
)

// rawRequest sends one hand-built HTTP request and returns status and
// decoded error body (or raw body when not an error document).
func rawRequest(t *testing.T, method, url, contentType string, body io.Reader) (int, string) {
	t.Helper()
	req, err := http.NewRequestWithContext(context.Background(), method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
		return resp.StatusCode, eb.Error
	}
	return resp.StatusCode, string(raw)
}

// multipartBody assembles a fit form from ordered (name, value) pairs;
// the field named "data" is written as a file part.
func multipartBody(t *testing.T, fields [][2]string) (io.Reader, string) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, f := range fields {
		if f[0] == "data" {
			fw, err := mw.CreateFormFile("data", "data.csv")
			if err != nil {
				t.Fatal(err)
			}
			io.WriteString(fw, f[1])
			continue
		}
		if err := mw.WriteField(f[0], f[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf, mw.FormDataContentType()
}

// TestErrorPaths is the table-driven error-path audit of every
// endpoint: malformed query parameters, unknown ids, over-cap asks,
// bad JSON bodies and garbage uploads must map to the documented 4xx
// statuses with a JSON error body — never a 500, never a hang.
func TestErrorPaths(t *testing.T) {
	_, c, _ := newTestServer(t, Config{MaxSynthesisRows: 1000, CuratorDir: t.TempDir()})
	base := c.BaseURL

	cases := []struct {
		name        string
		method      string
		path        string
		contentType string
		body        string
		wantStatus  int
		wantErr     string
	}{
		{"unknown model metadata", "GET", "/models/ghost", "", "", 404, "ghost"},
		{"unknown model synthesize", "GET", "/models/ghost/synthesize?n=10", "", "", 404, "ghost"},
		{"unknown model marginal", "POST", "/models/ghost/marginal", "application/json", `{"attrs":["color"]}`, 404, "ghost"},

		{"synthesize missing n", "GET", "/models/fixture/synthesize", "", "", 400, "n must be in [1, 1000]"},
		{"synthesize n zero", "GET", "/models/fixture/synthesize?n=0", "", "", 400, "n must be in"},
		{"synthesize n negative", "GET", "/models/fixture/synthesize?n=-4", "", "", 400, "n must be in"},
		{"synthesize n over cap", "GET", "/models/fixture/synthesize?n=1001", "", "", 400, "n must be in [1, 1000]"},
		{"synthesize n not a number", "GET", "/models/fixture/synthesize?n=ten", "", "", 400, "parameter n"},
		{"synthesize bad seed", "GET", "/models/fixture/synthesize?n=5&seed=0x12", "", "", 400, "parameter seed"},
		{"synthesize seed overflow", "GET", "/models/fixture/synthesize?n=5&seed=9223372036854775808", "", "", 400, "parameter seed"},
		{"synthesize bad format", "GET", "/models/fixture/synthesize?n=5&format=parquet", "", "", 400, `unknown format "parquet"`},
		{"synthesize bad parallelism", "GET", "/models/fixture/synthesize?n=5&parallelism=lots", "", "", 400, "parameter parallelism"},
		{"synthesize bad json body", "POST", "/models/fixture/synthesize", "application/json", `{"n":`, 400, "decode request body"},

		{"marginal bad json", "POST", "/models/fixture/marginal", "application/json", `{`, 400, "decode request body"},
		{"marginal no attrs", "POST", "/models/fixture/marginal", "application/json", `{"attrs":[]}`, 400, "at least one attribute"},
		{"marginal unknown attr", "POST", "/models/fixture/marginal", "application/json", `{"attrs":["height"]}`, 400, `unknown attribute "height"`},
		{"marginal over cap", "POST", "/models/fixture/marginal", "application/json", `{"attrs":["color","age"],"max_cells":2}`, 422, "cell cap"},

		{"unknown model query", "POST", "/models/ghost/query", "application/json", `{"kind":"marginal","attrs":[{"name":"color"}]}`, 404, "ghost"},
		{"query bad json", "POST", "/models/fixture/query", "application/json", `{`, 400, "decode request body"},
		{"query unknown kind", "POST", "/models/fixture/query", "application/json", `{"kind":"median"}`, 400, `unknown query kind "median"`},
		{"query no attrs", "POST", "/models/fixture/query", "application/json", `{"kind":"marginal"}`, 400, "names no attributes"},
		{"query unknown attr", "POST", "/models/fixture/query", "application/json", `{"kind":"marginal","attrs":[{"name":"height"}]}`, 400, `unknown attribute "height"`},
		{"query bad level", "POST", "/models/fixture/query", "application/json", `{"kind":"marginal","attrs":[{"name":"color","level":7}]}`, 400, "taxonomy level"},
		{"query over cap", "POST", "/models/fixture/query", "application/json", `{"kind":"marginal","attrs":[{"name":"color"},{"name":"age"}],"max_cells":2}`, 422, "cell cap"},
		{"query prob no predicates", "POST", "/models/fixture/query", "application/json", `{"kind":"prob"}`, 400, "at least one predicate"},
		{"query unknown value", "POST", "/models/fixture/query", "application/json", `{"kind":"prob","where":[{"attr":"color","values":["mauve"]}]}`, 400, `no value "mauve"`},
		{"query target is evidence", "POST", "/models/fixture/query", "application/json", `{"kind":"conditional","attrs":[{"name":"color"}],"where":[{"attr":"color","values":["red"]}]}`, 400, "both a query target and a predicate"},

		{"dataset create bad json", "POST", "/datasets/survey", "application/json", `[{"name":`, 400, "decode request body"},

		{"upload garbage", "POST", "/models", "application/json", `{"version":1,"model":{"Attrs":[]}}`, 422, "invalid model artifact"},
		{"upload empty", "POST", "/models", "application/json", ``, 422, "invalid model artifact"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			}
			status, msg := rawRequest(t, tc.method, base+tc.path, tc.contentType, body)
			if status != tc.wantStatus {
				t.Errorf("status = %d (%s), want %d", status, msg, tc.wantStatus)
			}
			if !strings.Contains(msg, tc.wantErr) {
				t.Errorf("error = %q, want substring %q", msg, tc.wantErr)
			}
		})
	}
}

// TestFitMultipartErrorPaths covers curator-mode form validation: every
// malformed upload must be rejected with 400/403 and must leave the
// privacy ledger untouched (or refunded).
func TestFitMultipartErrorPaths(t *testing.T) {
	ledger := accountant.New(1.0)
	_, c, _ := newTestServer(t, Config{Ledger: ledger})
	base := c.BaseURL

	validSchema := `[{"name":"color","kind":"categorical","labels":["red","green","blue"]},` +
		`{"name":"age","kind":"continuous","min":0,"max":80,"bins":8},` +
		`{"name":"employed","kind":"categorical","labels":["no","yes"]}]`
	validCSV := "color,age,employed\nred,10,no\ngreen,44,yes\nblue,68,yes\n"

	cases := []struct {
		name       string
		fields     [][2]string
		wantStatus int
		wantErr    string
	}{
		{"missing data part",
			[][2]string{{"dataset_id", "d1"}, {"epsilon", "1.0"}, {"schema", validSchema}},
			400, "missing data part"},
		{"data before metadata",
			[][2]string{{"data", validCSV}},
			400, "dataset_id, epsilon and schema must precede the data part"},
		{"invalid dataset id",
			[][2]string{{"dataset_id", "../evil"}, {"epsilon", "1.0"}},
			400, "invalid dataset_id"},
		{"invalid model id",
			[][2]string{{"dataset_id", "d1"}, {"model_id", "a b c"}},
			400, "invalid model_id"},
		{"bad epsilon",
			[][2]string{{"dataset_id", "d1"}, {"epsilon", "one"}},
			400, "field epsilon"},
		{"bad seed",
			[][2]string{{"dataset_id", "d1"}, {"epsilon", "1.0"}, {"seed", "s7"}},
			400, "field seed"},
		{"bad parallelism",
			[][2]string{{"dataset_id", "d1"}, {"epsilon", "1.0"}, {"parallelism", "all"}},
			400, "field parallelism"},
		{"bad schema json",
			[][2]string{{"dataset_id", "d1"}, {"epsilon", "1.0"}, {"schema", `[{]`}},
			400, "field schema"},
		{"unknown field",
			[][2]string{{"dataset_id", "d1"}, {"gamma", "2"}},
			400, `unknown field "gamma"`},
		{"csv header mismatch",
			[][2]string{{"dataset_id", "d1"}, {"epsilon", "1.0"}, {"schema", validSchema},
				{"data", "a,b,c\nred,10,no\n"}},
			400, "schema expects"},
		{"csv unknown label",
			[][2]string{{"dataset_id", "d1"}, {"epsilon", "1.0"}, {"schema", validSchema},
				{"data", "color,age,employed\nmauve,10,no\n"}},
			400, "unknown label"},
		{"csv no rows",
			[][2]string{{"dataset_id", "d1"}, {"epsilon", "1.0"}, {"schema", validSchema},
				{"data", "color,age,employed\n"}},
			400, "no rows"},
		{"over budget",
			[][2]string{{"dataset_id", "d1"}, {"epsilon", "1.5"}, {"schema", validSchema},
				{"data", validCSV}},
			403, "budget"},
		{"existing model id",
			[][2]string{{"dataset_id", "d1"}, {"model_id", "fixture"}, {"epsilon", "0.2"},
				{"schema", validSchema}, {"data", validCSV}},
			409, "already registered"},
	}
	// A non-multipart body on an enabled /fit endpoint is its own path.
	t.Run("not multipart", func(t *testing.T) {
		status, msg := rawRequest(t, "POST", base+"/fit", "application/json", strings.NewReader(`{}`))
		if status != 400 || !strings.Contains(msg, "multipart body required") {
			t.Errorf("status = %d, error = %q", status, msg)
		}
	})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, ct := multipartBody(t, tc.fields)
			status, msg := rawRequest(t, "POST", base+"/fit", ct, body)
			if status != tc.wantStatus {
				t.Errorf("status = %d (%s), want %d", status, msg, tc.wantStatus)
			}
			if !strings.Contains(msg, tc.wantErr) {
				t.Errorf("error = %q, want substring %q", msg, tc.wantErr)
			}
		})
	}

	// Every rejection above must have left the d1 budget whole: a
	// failed fit charges nothing (or refunds what it charged).
	if spent := ledger.Snapshot()["d1"].Spent; spent != 0 {
		t.Errorf("ledger spent %g after rejected fits, want 0", spent)
	}
}

// TestFitOversizedDataGets413: a data part that blows the upload cap
// while it decodes is a 413, and the charge made before its first row
// was read is refunded.
func TestFitOversizedDataGets413(t *testing.T) {
	ledger := accountant.New(1.0)
	_, c, _ := newTestServer(t, Config{Ledger: ledger, MaxUploadBytes: 16 << 10})
	schema := `[{"name":"employed","kind":"categorical","labels":["no","yes"]}]`
	data := "employed\n" + strings.Repeat("yes\nno\n", 8000) // 56 KiB
	body, ct := multipartBody(t, [][2]string{{"dataset_id", "d1"}, {"epsilon", "0.5"},
		{"schema", schema}, {"data", data}})
	status, msg := rawRequest(t, "POST", c.BaseURL+"/fit", ct, body)
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d (%s), want 413", status, msg)
	}
	e, charged := ledger.Snapshot()["d1"]
	if !charged {
		t.Fatal("the fit was refused before its charge; the cap must fail the data part's decode")
	}
	if e.Spent != 0 {
		t.Errorf("ledger spent %g after the oversized fit, want 0", e.Spent)
	}
}
