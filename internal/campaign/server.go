package campaign

// The coordinator's HTTP face. Campaign routes live next to the standard
// obs.Monitor surface (/healthz with build version, /debug/pprof/*), and
// the farm's own metrics are served in Prometheus text form:
//
//	POST /campaigns                           submit a spec (idempotent)
//	GET  /campaigns                           list campaigns
//	GET  /campaigns/{id}                      live progress view
//	POST /acquire                             lease a point (any campaign, or the request's)
//	POST /campaigns/{id}/leases/{lease}/renew       heartbeat + live metrics
//	POST /campaigns/{id}/leases/{lease}/checkpoint  upload WNCP bytes
//	POST /campaigns/{id}/leases/{lease}/complete    exactly-once commit
//	POST /campaigns/{id}/leases/{lease}/fail        report a failed attempt
//	GET  /campaigns/{id}/points/{point}/checkpoint  download migrated WNCP bytes
//	GET  /campaigns/{id}/events               live StatusView stream (SSE)
//	GET  /farm                                fleet telemetry snapshot (JSON)
//	GET  /farm/events                         live FarmView stream (SSE)
//	GET  /dash                                dependency-free HTML dashboard
//	GET  /metrics /healthz /debug/pprof/*
//
// Graceful drain follows the obs.Monitor protocol: Shutdown flips /healthz
// to 503 and stops granting leases, lets in-flight requests finish, then
// closes the listener.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"wormnet/internal/obs"
)

// maxCheckpointBytes bounds one uploaded checkpoint (64 MiB — an 8-ary
// 3-cube snapshot is well under 1 MiB).
const maxCheckpointBytes = 64 << 20

// Server exposes a Coordinator over HTTP.
type Server struct {
	coord   *Coordinator
	monitor *obs.Monitor
	mux     *http.ServeMux

	// done unblocks long-lived SSE streams on Shutdown/Close so a drain
	// with live dashboards does not hang until its timeout.
	done     chan struct{}
	doneOnce sync.Once
}

// NewServer builds the HTTP face of a coordinator. The monitor handles
// /metrics, /healthz, /snapshot and /debug/pprof/*; it reports the
// coordinator's build version on /healthz so probes can spot version skew
// from the outside.
func NewServer(coord *Coordinator) *Server {
	monitor := obs.NewMonitor(coord.Registry(), obs.NewManifest("campaignd", 0, nil), nil)
	monitor.SetBuildInfo(coord.Version())
	s := &Server{coord: coord, monitor: monitor, mux: http.NewServeMux(), done: make(chan struct{})}

	s.mux.HandleFunc("POST /campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /campaigns", s.handleList)
	s.mux.HandleFunc("GET /campaigns/{id}", s.handleStatus)
	s.mux.HandleFunc("POST /acquire", s.handleAcquire)
	s.mux.HandleFunc("POST /campaigns/{id}/leases/{lease}/renew", s.handleRenew)
	s.mux.HandleFunc("POST /campaigns/{id}/leases/{lease}/checkpoint", s.handleUploadCheckpoint)
	s.mux.HandleFunc("POST /campaigns/{id}/leases/{lease}/complete", s.handleComplete)
	s.mux.HandleFunc("POST /campaigns/{id}/leases/{lease}/fail", s.handleFail)
	s.mux.HandleFunc("GET /campaigns/{id}/points/{point}/checkpoint", s.handleDownloadCheckpoint)
	s.mux.HandleFunc("GET /campaigns/{id}/events", s.handleCampaignEvents)
	s.mux.HandleFunc("GET /farm", s.handleFarm)
	s.mux.HandleFunc("GET /farm/events", s.handleFarmEvents)
	s.mux.HandleFunc("GET /dash", s.handleDash)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.Handle("/", monitor.Handler())
	return s
}

// Handler returns the full route table (tests mount it on httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve binds addr and serves in the background until Shutdown/Close.
func (s *Server) Serve(addr string) error {
	// The monitor owns the listener and server lifecycle; route everything
	// through our mux (which falls back to the monitor's handlers).
	return s.monitor.ServeHandler(addr, s.mux)
}

// Addr returns the bound address ("" before Serve).
func (s *Server) Addr() string { return s.monitor.Addr() }

// Shutdown drains gracefully: stop granting leases, flip /healthz to 503,
// give in-flight requests up to timeout, then close.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.coord.BeginDrain()
	s.doneOnce.Do(func() { close(s.done) })
	return s.monitor.Shutdown(timeout)
}

// Close stops serving immediately.
func (s *Server) Close() error {
	s.doneOnce.Do(func() { close(s.done) })
	return s.monitor.Close()
}

// httpError answers with the status the refusals table gives the error (500
// for anything untyped). Workers treat 410 as "lease lost, abandon the
// point" and 409 as "refused, do not retry".
func httpError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	for _, r := range refusals {
		if errors.Is(err, r.err) {
			code = r.code
			break
		}
	}
	http.Error(w, err.Error(), code)
}

// writeJSON renders one JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client went away
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := DecodeSpec(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	id, created, err := s.coord.Submit(spec)
	if err != nil {
		httpError(w, err)
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	writeJSON(w, code, map[string]any{"id": id, "created": created})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.coord.List())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	view, err := s.coord.Status(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleAcquire(w http.ResponseWriter, r *http.Request) {
	var req AcquireRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxSpecBytes)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("campaign: decode acquire: %v", err), http.StatusBadRequest)
		return
	}
	resp, err := s.coord.Acquire(req)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req RenewRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxCheckpointBytes)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("campaign: decode renew: %v", err), http.StatusBadRequest)
		return
	}
	if err := s.coord.Renew(r.PathValue("id"), r.PathValue("lease"), req); err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

func (s *Server) handleUploadCheckpoint(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxCheckpointBytes))
	if err != nil {
		http.Error(w, fmt.Sprintf("campaign: read checkpoint: %v", err), http.StatusBadRequest)
		return
	}
	if err := s.coord.UploadCheckpoint(r.PathValue("id"), r.PathValue("lease"), data); err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "bytes": len(data)})
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxCheckpointBytes)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("campaign: decode complete: %v", err), http.StatusBadRequest)
		return
	}
	if err := s.coord.Complete(r.PathValue("id"), r.PathValue("lease"), req); err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

func (s *Server) handleFail(w http.ResponseWriter, r *http.Request) {
	var req FailRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxSpecBytes)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("campaign: decode fail: %v", err), http.StatusBadRequest)
		return
	}
	if err := s.coord.Fail(r.PathValue("id"), r.PathValue("lease"), req); err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

func (s *Server) handleDownloadCheckpoint(w http.ResponseWriter, r *http.Request) {
	point, err := strconv.Atoi(r.PathValue("point"))
	if err != nil {
		http.Error(w, "campaign: bad point index", http.StatusBadRequest)
		return
	}
	data, err := s.coord.DownloadCheckpoint(r.PathValue("id"), point)
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data) //nolint:errcheck // client went away
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.coord.UpdateGauges()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WritePrometheus(w, s.coord.Registry()) //nolint:errcheck // client went away
}

func (s *Server) handleFarm(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.coord.Farm())
}

func (s *Server) handleFarmEvents(w http.ResponseWriter, r *http.Request) {
	s.serveSSE(w, r, func() (any, error) { return s.coord.Farm(), nil })
}

func (s *Server) handleCampaignEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.coord.Status(id); err != nil {
		httpError(w, err) // reject unknown campaigns before committing to a stream
		return
	}
	s.serveSSE(w, r, func() (any, error) { return s.coord.Status(id) })
}

// sseInterval picks the stream period: ?interval_ms= within [100ms, 30s],
// default 1s.
func sseInterval(r *http.Request) time.Duration {
	d := time.Second
	if raw := r.URL.Query().Get("interval_ms"); raw != "" {
		if ms, err := strconv.Atoi(raw); err == nil {
			d = time.Duration(ms) * time.Millisecond
		}
	}
	return min(max(d, 100*time.Millisecond), 30*time.Second)
}

// serveSSE streams snapshots from view as server-sent events until the
// client disconnects or the server shuts down. The first event is sent
// immediately so dashboards render without waiting a full period.
func (s *Server) serveSSE(w http.ResponseWriter, r *http.Request, view func() (any, error)) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "campaign: streaming unsupported", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	tick := time.NewTicker(sseInterval(r))
	defer tick.Stop()
	for {
		v, err := view()
		if err != nil {
			return // campaign vanished mid-stream; client reconnects or gives up
		}
		data, err := json.Marshal(v)
		if err != nil {
			return
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return
		}
		flusher.Flush()
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		case <-tick.C:
		}
	}
}

func (s *Server) handleDash(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	io.WriteString(w, dashboardHTML) //nolint:errcheck // client went away
}
