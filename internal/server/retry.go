package server

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"errors"
	"log/slog"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// RetryPolicy configures the Client's bounded-jitter exponential
// backoff. The zero value disables retries entirely — existing callers
// keep single-attempt semantics unless they opt in.
//
// Retries cover the failures the server's graceful-degradation contract
// expects clients to absorb: network errors, 429 (per-dataset fit
// pressure), 502/503 (overload, proxies) and 504. A Retry-After header
// on the response overrides the computed backoff for that attempt.
// POST /fit is only retried with an Idempotency-Key attached (the
// Client adds one automatically), so a retry after an ambiguous failure
// can never double-charge the privacy budget.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first;
	// values below 2 mean "no retries".
	MaxAttempts int
	// BaseDelay seeds the exponential schedule (attempt k waits roughly
	// BaseDelay·2^k, jittered); <= 0 selects 100ms.
	BaseDelay time.Duration
	// MaxDelay caps any single wait, including server Retry-After
	// hints; <= 0 selects 5s.
	MaxDelay time.Duration
}

// DefaultRetryPolicy is a sensible interactive-use policy: 4 attempts,
// 100ms base, 5s cap — at most ~6s of waiting on a saturated server.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: 5 * time.Second}
}

func (p RetryPolicy) enabled() bool { return p.MaxAttempts > 1 }

// retryableStatus reports whether a response status invites a retry.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// backoff computes the wait before retry number attempt (0-based),
// honoring a Retry-After hint when the server sent one. The computed
// delay is jittered uniformly over [d/2, d): synchronized clients that
// were all shed together must not stampede back together.
func (p RetryPolicy) backoff(attempt int, retryAfter string) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 5 * time.Second
	}
	if retryAfter != "" {
		if sec, err := strconv.Atoi(retryAfter); err == nil && sec >= 0 {
			d := time.Duration(sec) * time.Second
			if d > max {
				d = max
			}
			return d
		}
	}
	d := base << attempt
	if d > max || d <= 0 { // <= 0: shift overflow
		d = max
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// do runs one logical request through the retry policy, in at most
// attempts tries. build must return a fresh request (with a fresh body)
// on every call; a build error aborts immediately. Responses with
// non-retryable statuses are returned to the caller unconsumed,
// including the final attempt's.
func (c *Client) do(ctx context.Context, attempts int, build func() (*http.Request, error)) (*http.Response, error) {
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	retryAfter := ""
	for i := 0; i < attempts; i++ {
		if i > 0 {
			d := c.Retry.backoff(i-1, retryAfter)
			c.logRetry(ctx, i+1, attempts, lastErr, retryAfter, d)
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		req, err := build()
		if err != nil {
			return nil, err
		}
		resp, err := c.http().Do(req)
		if err != nil {
			// Transport-level failure (refused, reset, timeout). The
			// request may or may not have reached the server — exactly
			// the ambiguity Idempotency-Keys exist for.
			lastErr, retryAfter = err, ""
			continue
		}
		if retryableStatus(resp.StatusCode) && i < attempts-1 {
			retryAfter = resp.Header.Get("Retry-After")
			lastErr = apiError(resp) // drains and closes the body
			continue
		}
		return resp, nil
	}
	return nil, lastErr
}

// logRetry emits one structured line per retry attempt through the
// client's optional Logger: which attempt is about to run, what failed
// (HTTP status plus the server's request ID when the failure was an
// *APIError, the transport error otherwise), the backoff about to be
// slept, and the Retry-After hint being honored, if any.
func (c *Client) logRetry(ctx context.Context, attempt, attempts int, cause error, retryAfter string, wait time.Duration) {
	if c.Logger == nil {
		return
	}
	attrs := []slog.Attr{
		slog.Int("attempt", attempt),
		slog.Int("max_attempts", attempts),
		slog.Duration("backoff", wait),
	}
	var apiErr *APIError
	switch {
	case errors.As(cause, &apiErr):
		attrs = append(attrs, slog.Int("status", apiErr.StatusCode))
		if apiErr.RequestID != "" {
			attrs = append(attrs, slog.String("request_id", apiErr.RequestID))
		}
	case cause != nil:
		attrs = append(attrs, slog.String("error", cause.Error()))
	}
	if retryAfter != "" {
		attrs = append(attrs, slog.String("retry_after", retryAfter))
	}
	c.Logger.LogAttrs(ctx, slog.LevelWarn, "retrying request", attrs...)
}

// newIdempotencyKey draws a fresh random key for a retryable fit.
func newIdempotencyKey() string {
	var b [16]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// Fall back to math/rand — uniqueness, not secrecy, is the goal.
		return "ik-" + strconv.FormatInt(rand.Int63(), 36) + strconv.FormatInt(rand.Int63(), 36)
	}
	return "ik-" + hex.EncodeToString(b[:])
}
