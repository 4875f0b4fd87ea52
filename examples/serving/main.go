// Serving: the full privbayesd lifecycle in one process. A curator fits
// a model against a dataset's privacy budget, the daemon registers and
// persists it, and analysts stream synthetic data and run exact
// marginal queries over HTTP — then the budget runs dry and the ledger
// refuses the next fit.
//
// The example embeds the server (internal/server is exactly what
// cmd/privbayesd wraps) so it runs hermetically; point the client at a
// real `privbayesd -addr :8131` for the networked version.
package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"

	"privbayes/internal/accountant"
	"privbayes/internal/data"
	"privbayes/internal/server"
	"privbayes/internal/telemetry"
)

func main() {
	dir, err := os.MkdirTemp("", "privbayes-serving")
	check(err)
	defer os.RemoveAll(dir)

	// The daemon: model registry + worker budget + privacy ledger.
	ledger := accountant.New(1.0) // each dataset may spend ε ≤ 1 total
	// The daemon logs as privbayesd does by default: text lines on stderr.
	logger, err := telemetry.NewLogger(os.Stderr, "text", "info")
	check(err)
	srv, err := server.New(server.Config{ModelsDir: dir, Ledger: ledger, Logger: logger})
	check(err)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	go http.Serve(ln, srv)
	base := "http://" + ln.Addr().String()
	fmt.Printf("privbayesd serving on %s\n\n", base)

	c := server.NewClient(base)
	ctx := context.Background()

	// --- Curator: upload CSV + schema + ε, fit under the budget. ---
	spec, _ := data.ByName("BR2000")
	ds := spec.GenerateN(12_000)
	var csvBuf bytes.Buffer
	check(ds.WriteCSV(&csvBuf))
	seed := int64(17)
	meta, err := c.Fit(ctx, server.FitRequest{
		DatasetID: "br2000", Epsilon: 0.8, ModelID: "br2000-v1", Seed: &seed,
		Schema: server.SpecsFromAttrs(ds.Attrs()), Data: &csvBuf,
	})
	check(err)
	fmt.Printf("fitted %s under ε=%g: degree %d, score %s, %d conditional cells\n",
		meta.ID, meta.Epsilon, meta.Degree, meta.Score, meta.Cells)
	for _, p := range meta.Network[:3] {
		fmt.Printf("  %s <- %v\n", p.Child, p.Parents)
	}
	fmt.Println("  ...")

	// --- Analyst: stream synthetic rows (seeded => reproducible). ---
	stream, err := c.Synthesize(ctx, "br2000-v1", server.SynthesizeRequest{N: 50_000, Seed: &seed})
	check(err)
	sc := bufio.NewScanner(stream.Body)
	rows := -1 // header
	for sc.Scan() {
		rows++
	}
	check(sc.Err())
	stream.Close()
	fmt.Printf("\nstreamed %d synthetic rows (seed %d reproduces them byte for byte)\n", rows, stream.Seed)

	// --- Analyst: exact marginal inference, no sampling error. ---
	marg, err := c.Marginal(ctx, "br2000-v1", []string{"gender", "car"}, 0)
	check(err)
	fmt.Printf("\nPr[gender, car] by model inference:\n")
	labels := []string{"F/no", "F/yes", "M/no", "M/yes"}
	for i, l := range labels {
		fmt.Printf("  %-6s %.4f\n", l, marg.P[i])
	}

	// --- The ledger holds the line: br2000 has 0.2 of ε left. ---
	entries, err := c.Budget(ctx)
	check(err)
	e := entries["br2000"]
	fmt.Printf("\nledger: br2000 spent ε=%g of %g (%.1f remaining)\n", e.Spent, e.Budget, e.Remaining())
	var csvBuf2 bytes.Buffer
	check(ds.WriteCSV(&csvBuf2))
	_, err = c.Fit(ctx, server.FitRequest{
		DatasetID: "br2000", Epsilon: 0.8,
		Schema: server.SpecsFromAttrs(ds.Attrs()), Data: &csvBuf2,
	})
	fmt.Printf("second ε=0.8 fit refused: %v\n", err)
	fmt.Println("\nmodels and ledger persist in the models dir; a daemon restart serves the same release.")
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
