package campaign

// Client is the HTTP Transport: thin typed wrappers over the coordinator's
// HTTP API, method for method what a Coordinator offers in-process.
// Transport failures on mutating calls are retried with capped exponential
// backoff — every mutating call is idempotent or lease-guarded, so a
// response lost on the wire is safe to replay (a replayed Complete whose
// first copy landed is rejected as ErrLeaseLost, which callers treat as
// "already committed elsewhere").

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"wormnet/internal/fault"
)

// ErrRejected is what a client decodes HTTP 409 to: the coordinator refused
// the request outright (ErrVersionSkew, ErrProtocolSkew or ErrDigestMismatch
// on its side of the wire).
var ErrRejected = errors.New("campaign: request rejected by coordinator")

// refusals pairs every typed refusal with the HTTP status that carries it:
// the server answers with the status of the first row its error matches,
// the client decodes a status to the first row that has it. A refusal is a
// decision, not a failure, so no row is worth replaying — whichever side of
// the wire the caller sits on.
var refusals = []struct {
	err  error
	code int
}{
	{ErrUnknownCampaign, http.StatusNotFound},
	{ErrLeaseLost, http.StatusGone},
	{ErrRejected, http.StatusConflict},
	{ErrVersionSkew, http.StatusConflict},
	{ErrProtocolSkew, http.StatusConflict},
	{ErrDigestMismatch, http.StatusConflict},
	{ErrBadCheckpoint, http.StatusUnprocessableEntity},
	{ErrNoCheckpoint, http.StatusPreconditionFailed},
}

// retryable reports whether an error is worth replaying: transport
// failures, 5xx and journal I/O yes; typed refusals no.
func retryable(err error) bool {
	for _, r := range refusals {
		if errors.Is(err, r.err) {
			return false
		}
	}
	return true
}

// DefaultTransportRetry is the capped-backoff policy for transport errors
// (delays read in milliseconds).
var DefaultTransportRetry = fault.RetryPolicy{MaxRetries: 6, BackoffBase: 100, BackoffCap: 2000}

// Client talks to one coordinator.
type Client struct {
	base  string
	hc    *http.Client
	retry fault.RetryPolicy
	sleep func(time.Duration) // test hook
}

// NewClient builds a client for the coordinator at base
// (e.g. "http://127.0.0.1:8080").
func NewClient(base string) *Client {
	return &Client{
		base:  strings.TrimRight(base, "/"),
		hc:    &http.Client{Timeout: 30 * time.Second},
		retry: DefaultTransportRetry,
		sleep: time.Sleep,
	}
}

// do performs one HTTP call, mapping non-2xx statuses onto the
// coordinator's typed errors.
func (c *Client) do(method, path, contentType string, body []byte, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("campaign: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxCheckpointBytes))
	if err != nil {
		return fmt.Errorf("campaign: read %s: %w", path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		detail := strings.TrimSpace(string(data))
		for _, r := range refusals {
			if resp.StatusCode == r.code {
				return fmt.Errorf("%w: %s", r.err, detail)
			}
		}
		return fmt.Errorf("campaign: %s %s: http %d: %s", method, path, resp.StatusCode, detail)
	}
	if out != nil {
		if raw, ok := out.(*[]byte); ok {
			*raw = data
			return nil
		}
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("campaign: decode %s response: %w", path, err)
		}
	}
	return nil
}

// doRetry replays do with capped backoff on retryable errors.
func (c *Client) doRetry(method, path, contentType string, body []byte, out any) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = c.do(method, path, contentType, body, out)
		if err == nil || !retryable(err) || c.retry.Exhausted(attempt+1) {
			return err
		}
		c.sleep(time.Duration(c.retry.Delay(attempt)) * time.Millisecond)
	}
}

func marshal(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("campaign: marshal request: %v", err)) // plain data; cannot fail
	}
	return data
}

// Submit registers a spec (idempotent) and returns the campaign id.
func (c *Client) Submit(spec *Spec) (id string, created bool, err error) {
	var resp struct {
		ID      string `json:"id"`
		Created bool   `json:"created"`
	}
	if err := c.doRetry("POST", "/campaigns", "application/json", marshal(spec), &resp); err != nil {
		return "", false, err
	}
	return resp.ID, resp.Created, nil
}

// Acquire asks for a point lease. Not retried internally — the worker loop
// owns acquire pacing.
func (c *Client) Acquire(req AcquireRequest) (*AcquireResponse, error) {
	var resp AcquireResponse
	if err := c.do("POST", "/acquire", "application/json", marshal(req), &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Renew heartbeats a lease with the latest progress snapshot.
func (c *Client) Renew(campaign, lease string, req RenewRequest) error {
	return c.do("POST", "/campaigns/"+campaign+"/leases/"+lease+"/renew",
		"application/json", marshal(req), nil)
}

// UploadCheckpoint ships WNCP bytes for the leased point.
func (c *Client) UploadCheckpoint(campaign, lease string, data []byte) error {
	return c.doRetry("POST", "/campaigns/"+campaign+"/leases/"+lease+"/checkpoint",
		"application/octet-stream", data, nil)
}

// DownloadCheckpoint fetches the migrated checkpoint bytes for a point.
func (c *Client) DownloadCheckpoint(campaign string, point int) ([]byte, error) {
	var data []byte
	err := c.doRetry("GET", fmt.Sprintf("/campaigns/%s/points/%d/checkpoint", campaign, point),
		"", nil, &data)
	return data, err
}

// Complete commits a finished point (exactly once, lease-guarded).
// A request that does not encode (a non-finite result) is refused here.
func (c *Client) Complete(campaign, lease string, req CompleteRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("campaign: encode result: %w", err)
	}
	return c.doRetry("POST", "/campaigns/"+campaign+"/leases/"+lease+"/complete",
		"application/json", body, nil)
}

// Fail reports a non-completed attempt.
func (c *Client) Fail(campaign, lease string, req FailRequest) error {
	return c.doRetry("POST", "/campaigns/"+campaign+"/leases/"+lease+"/fail",
		"application/json", marshal(req), nil)
}

// Status fetches a campaign's live progress view.
func (c *Client) Status(campaign string) (*StatusView, error) {
	var view StatusView
	if err := c.do("GET", "/campaigns/"+campaign, "", nil, &view); err != nil {
		return nil, err
	}
	return &view, nil
}
