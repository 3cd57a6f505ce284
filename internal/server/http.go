package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/control"
	"repro/internal/inject"
	"repro/internal/ode"
	"repro/internal/problems"
)

// Handler returns the campaign API:
//
//	POST   /v1/campaigns              submit a Spec; 202 (accepted) or 200 (cache hit); 413 past MaxSpecBytes
//	GET    /v1/campaigns              list campaign statuses, submission order
//	GET    /v1/campaigns/{id}         one campaign's status
//	DELETE /v1/campaigns/{id}         cancel a campaign
//	GET    /v1/campaigns/{id}/events  JSONL event stream (?follow=false for a snapshot)
//	GET    /v1/campaigns/{id}/result  merged result document (?wait=true to block)
//	GET    /v1/stats                  operational counters
//	GET    /v1/meta                   registry contents (problems, methods, injectors, detectors)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/campaigns/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/meta", s.handleMeta)
	return mux
}

type errorDoc struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // a broken client connection is not the server's error
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorDoc{Error: msg})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("spec body exceeds %d bytes", MaxSpecBytes))
			return
		}
		writeError(w, http.StatusBadRequest, "decoding spec: "+err.Error())
		return
	}
	c, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case errors.Is(err, ErrStore):
		// The journal could not record the submission: the durability
		// contract cannot be honoured, so the work was not accepted.
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	st := c.status()
	code := http.StatusAccepted
	if st.State.Terminal() {
		code = http.StatusOK // served from the result cache
	}
	writeJSON(w, code, st)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

// lookup resolves the {id} path value, writing a 404 on a miss.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*campaign, bool) {
	id := r.PathValue("id")
	c, ok := s.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign "+id)
	}
	return c, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, c.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(w, r)
	if !ok {
		return
	}
	c.requestCancel()
	writeJSON(w, http.StatusOK, c.status())
}

// handleEvents streams the campaign's event log as JSONL. By default it
// follows until the campaign is terminal (flushing each line as it
// lands); ?follow=false returns the current snapshot and closes.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(w, r)
	if !ok {
		return
	}
	follow := r.URL.Query().Get("follow") != "false"
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	next := 0
	for {
		c.mu.Lock()
		events := c.events[next:]
		next = len(c.events)
		terminal := c.state.Terminal()
		ch := c.notify
		c.mu.Unlock()
		for _, ev := range events {
			if _, err := w.Write(c.encodeEvent(ev)); err != nil {
				return
			}
			if _, err := w.Write([]byte{'\n'}); err != nil {
				return
			}
		}
		if len(events) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal || !follow {
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}

// handleResult serves the merged result document. While the campaign is
// still in flight it answers 202 with the status, unless ?wait=true asked
// to block until terminal. The X-Sdcd-Cache header reports whether the
// bytes came from the content-addressed campaign cache.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if r.URL.Query().Get("wait") == "true" {
		if err := c.wait(r.Context()); err != nil {
			return // client went away
		}
	}
	c.mu.Lock()
	state := c.state
	result := c.result
	errMsg := c.errMsg
	cacheHit := c.cacheHit
	c.mu.Unlock()
	switch state {
	case StateDone:
		if cacheHit {
			w.Header().Set("X-Sdcd-Cache", "hit")
		} else {
			w.Header().Set("X-Sdcd-Cache", "miss")
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(result)
	case StateFailed:
		writeError(w, http.StatusInternalServerError, errMsg)
	case StateCancelled:
		writeError(w, http.StatusConflict, "campaign cancelled")
	default:
		writeJSON(w, http.StatusAccepted, c.status())
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// Meta lists the registries a spec draws from, so clients can discover
// valid field values without reading the source.
type Meta struct {
	Problems  []string `json:"problems"`
	Methods   []string `json:"methods"`
	Injectors []string `json:"injectors"`
	Detectors []string `json:"detectors"`
}

func (s *Server) handleMeta(w http.ResponseWriter, _ *http.Request) {
	m := Meta{
		Problems:  problems.Names(),
		Detectors: control.Names(),
	}
	for _, tab := range ode.AllTableaus() {
		m.Methods = append(m.Methods, tab.Name)
	}
	for _, inj := range inject.All() {
		m.Injectors = append(m.Injectors, inj.Name())
	}
	writeJSON(w, http.StatusOK, m)
}
