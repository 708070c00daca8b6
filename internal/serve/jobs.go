package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"pseudosphere/internal/jobs"
	"pseudosphere/internal/modelspec"
	"pseudosphere/internal/task"
)

// maxJobBody caps a job submission body; it mirrors the spec parser's own
// limit so an oversized body is refused as 413 before parsing.
const maxJobBody = 1 << 16

// jobEventInterval paces SSE progress events between state transitions.
const jobEventInterval = 250 * time.Millisecond

// jobPrepare is the manager's Prepare hook: validate the spec against the
// same parser the GET endpoint uses, refuse oversized work before it can
// occupy a queue slot, and return the canonical response-store key. Using
// the response key as the job's dedup identity means duplicate
// submissions join one job, a restart re-derives the same id, and a job's
// result lands exactly where the synchronous endpoint would cache it — a
// warm GET and a finished job are indistinguishable.
func (s *Server) jobPrepare(spec jobs.Spec) (string, error) {
	bq, err := s.specQuery(spec)
	if err != nil {
		return "", err
	}
	if err := bq.price(); err != nil {
		return "", err
	}
	return "resp|" + spec.Endpoint + "|" + bq.key, nil
}

// jobRun is the manager's Run hook: one job attempt. It reuses the
// synchronous spine's pieces — response-store fast path, the shared
// admission pool (jobs never bypass the compute budget the service
// enforces on requests), the endpoint's price and compute, so a job
// resumed under a smaller budget is refused — plus the checkpoint log
// the manager opened for this job. The result is persisted synchronously
// before the job is marked done: a "done" job always has a readable
// result.
func (s *Server) jobRun(ctx context.Context, t *jobs.Task) error {
	if _, ok := s.store.Get(t.Key); ok {
		s.tracker.Counter("job_result_warm").Add(1)
		return nil
	}
	bq, err := s.specQuery(t.Spec)
	if err != nil {
		return err
	}
	if err := s.adm.acquire(ctx); err != nil {
		return err
	}
	defer s.adm.release()
	s.tracker.Counter("computes").Add(1)
	v, err := bq.run(ctx, t.Ckpt)
	if err != nil {
		return err
	}
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return s.store.Put(t.Key, body)
}

// specQuery resolves a job spec to its endpoint's query plan: the
// spec's params map plays the query string, and its optional inline
// model document goes through the same modelspec parse the POST
// endpoints use — so a job and a synchronous request for the same model
// derive the same canonical key however the model was spelled.
func (s *Server) specQuery(spec jobs.Spec) (endpointQuery, error) {
	var ms *modelspec.Spec
	if len(spec.Model) > 0 {
		var err error
		if ms, err = modelspec.Parse(spec.Model); err != nil {
			return endpointQuery{}, err
		}
	}
	return s.buildQuery(spec.Endpoint, spec.Values(), ms)
}

// handleJobSubmit accepts POST /v1/jobs. 202 with the job status for both
// fresh submissions and joins of an existing job.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		s.failJob(w, r, err)
		return
	}
	spec, err := jobs.ParseSpec(body)
	if err != nil {
		s.failJob(w, r, err)
		return
	}
	st, created, err := s.jobs.Submit(spec)
	if err != nil {
		s.failJob(w, r, err)
		return
	}
	if created {
		s.tracker.Counter("jobs_submitted").Add(1)
	} else {
		s.tracker.Counter("jobs_joined").Add(1)
	}
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

// handleJobGet answers GET /v1/jobs/{id} with the status snapshot,
// including live progress counters while the job runs.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		s.failJob(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleJobCancel answers DELETE /v1/jobs/{id}: queued jobs go terminal
// immediately, running ones when their compute unwinds.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		s.failJob(w, r, err)
		return
	}
	s.tracker.Counter("jobs_cancel_requests").Add(1)
	writeJSON(w, http.StatusOK, st)
}

// handleJobResult answers GET /v1/jobs/{id}/result. Done jobs stream the
// stored response body (identical to what the synchronous endpoint would
// have returned); non-terminal jobs answer 202 with the status so a
// client can poll this one URL until the payload appears.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := s.jobs.Get(id)
	if err != nil {
		s.failJob(w, r, err)
		return
	}
	switch st.State {
	case jobs.StateDone:
		key, err := s.jobs.Key(id)
		if err != nil {
			s.failJob(w, r, err)
			return
		}
		body, ok := s.store.Get(key)
		if !ok {
			// Done guarantees the result was written, but the store may have
			// evicted it since; the client resubmits (the spec is in the
			// status) and the job recomputes.
			writeError(w, http.StatusGone, fmt.Errorf("job %s: result evicted from the store; resubmit", id))
			return
		}
		writeJSONBytes(w, "job", body)
	case jobs.StateCancelled:
		writeError(w, http.StatusGone, fmt.Errorf("job %s was cancelled", id))
	case jobs.StateFailed:
		writeError(w, http.StatusInternalServerError, fmt.Errorf("job %s failed: %s", id, st.Error))
	default: // queued, running
		writeJSON(w, http.StatusAccepted, st)
	}
}

// handleJobEvents streams GET /v1/jobs/{id}/events as server-sent events:
// one status event immediately, another on every job state transition and
// every progress tick, closing after the terminal event. The stream has
// no server deadline — following a long job is its purpose — and ends
// when the client disconnects or the server drains.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.jobs.Get(id); err != nil {
		s.failJob(w, r, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	s.tracker.Counter("job_event_streams").Add(1)
	ticker := time.NewTicker(jobEventInterval)
	defer ticker.Stop()
	for {
		// Grab the transition channel before reading status: a transition
		// between the read and the select then wakes us instead of racing.
		transition := s.jobs.Watch()
		st, err := s.jobs.Get(id)
		if err != nil {
			return // swept while streaming
		}
		data, err := json.Marshal(st)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: status\ndata: %s\n\n", data)
		fl.Flush()
		if st.State.Terminal() {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.hardStop.Done():
			return
		case <-transition:
		case <-ticker.C:
		}
	}
}

// failJob maps job API errors to HTTP statuses, mirroring fail's mapping
// for the error classes shared with the synchronous endpoints.
func (s *Server) failJob(w http.ResponseWriter, r *http.Request, err error) {
	var se *jobs.SpecError
	var br badRequestError
	var me *modelspec.Error
	switch {
	case errors.As(err, &se), errors.As(err, &br), errors.As(err, &me):
		s.tracker.Counter("bad_requests").Add(1)
		writeError(w, http.StatusBadRequest, err)
	case errors.Is(err, errBudget), errors.Is(err, task.ErrSearchLimit):
		s.tracker.Counter("rejected_budget").Add(1)
		writeError(w, http.StatusRequestEntityTooLarge, err)
	case errors.Is(err, jobs.ErrQueueFull):
		s.tracker.Counter("rejected_saturated").Add(1)
		queued, _, _ := s.jobs.Stats()
		setRetryAfter(w, int64(queued), int64(s.cfg.MaxJobs))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, jobs.ErrNotFound):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, jobs.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		s.tracker.Counter("errors").Add(1)
		s.cfg.Log.Printf("serve: jobs %s: %v", r.URL.Path, err)
		writeError(w, http.StatusInternalServerError, err)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client disconnects are expected
}
