package service

import (
	"encoding/json"
	"net/http"
	"time"

	"crowdtopk"
	"crowdtopk/internal/obs"
	"crowdtopk/internal/obs/slo"
)

// ExplainResponse is GET /queries/{id}/explain: the query's cost
// attribution tree plus the reconciliation verdict against the query's
// authoritative TMC meter.
type ExplainResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Policy is the comparison policy the query ran under.
	Policy string `json:"policy,omitempty"`
	// Enabled reports whether attribution was recording for this query
	// (session telemetry on, or QueryOptions.Explain). A disabled query
	// serves an empty tree and Reconciled is meaningless.
	Enabled bool `json:"enabled"`
	// TMC is the query's authoritative spend meter: the final Result.TMC
	// for a terminal query, the live accounting meter otherwise.
	TMC int64 `json:"tmc"`
	// Terminal reports the query finished, so TMC and the tree are final.
	Terminal bool `json:"terminal"`
	// Reconciled is the invariant check: the tree's leaf TMC sum equals
	// the meter. Exact for terminal queries; a live query sampled between
	// a charge and its attribution may transiently read false.
	Reconciled bool                `json:"reconciled"`
	Tree       *crowdtopk.CostTree `json:"tree"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q := s.lookup(w, r)
	if q == nil {
		return
	}
	q.mu.Lock()
	h := q.handle
	state := q.state
	terminal := state == "done" || state == "canceled"
	tmc := int64(0)
	if terminal {
		tmc = q.result.TMC
	}
	restored := q.restored != nil
	q.mu.Unlock()

	resp := ExplainResponse{ID: q.id, State: state, Terminal: terminal, Policy: q.req.Policy}
	if h == nil {
		// Queued (never started) or restored from a journal: there is no
		// live collector. A restored query's spend predates this process,
		// so its attribution is honestly unavailable rather than empty.
		if restored {
			httpError(w, http.StatusGone, "query %q was restored from the journal; its attribution did not survive the restart", q.id)
			return
		}
		resp.Tree = &crowdtopk.CostTree{}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	if !terminal {
		tmc = h.TMC()
	}
	if resp.Policy == "" {
		resp.Policy = string(h.Policy())
	}
	resp.Enabled = h.ExplainEnabled()
	resp.TMC = tmc
	resp.Tree = h.Explain()
	resp.Reconciled = resp.Enabled && resp.Tree.TMC == tmc
	writeJSON(w, http.StatusOK, resp)
}

// SLOResponse is GET /debug/slo (and the POST /debug/slo echo).
type SLOResponse struct {
	Enabled bool `json:"enabled"`
	// Objectives echoes the live configuration — which POST /debug/slo
	// can change at runtime.
	Objectives *SLOObjectives `json:"objectives,omitempty"`
	Status     slo.Status     `json:"status"`
}

// SLOObjectives is the wire form of slo.Objectives: the POST /debug/slo
// body and the objectives echo in GET /debug/slo. Durations travel in
// the units the daemon flags use (milliseconds for the latency target,
// seconds for windows and horizon); zero fields take the tracker
// defaults, so a partial update body must re-state every objective it
// wants to keep.
type SLOObjectives struct {
	LatencyTargetMS int64   `json:"latency_target_ms,omitempty"`
	LatencyGoal     float64 `json:"latency_goal,omitempty"`
	Budget          int64   `json:"budget,omitempty"`
	BudgetHorizonS  int64   `json:"budget_horizon_s,omitempty"`
	ShortWindowS    int64   `json:"short_window_s,omitempty"`
	LongWindowS     int64   `json:"long_window_s,omitempty"`
	WarnBurn        float64 `json:"warn_burn,omitempty"`
	PageBurn        float64 `json:"page_burn,omitempty"`
}

func (o SLOObjectives) objectives() slo.Objectives {
	return slo.Objectives{
		LatencyTarget: time.Duration(o.LatencyTargetMS) * time.Millisecond,
		LatencyGoal:   o.LatencyGoal,
		Budget:        o.Budget,
		BudgetHorizon: time.Duration(o.BudgetHorizonS) * time.Second,
		ShortWindow:   time.Duration(o.ShortWindowS) * time.Second,
		LongWindow:    time.Duration(o.LongWindowS) * time.Second,
		WarnBurn:      o.WarnBurn,
		PageBurn:      o.PageBurn,
	}
}

func wireObjectives(o slo.Objectives) *SLOObjectives {
	return &SLOObjectives{
		LatencyTargetMS: o.LatencyTarget.Milliseconds(),
		LatencyGoal:     o.LatencyGoal,
		Budget:          o.Budget,
		BudgetHorizonS:  int64(o.BudgetHorizon / time.Second),
		ShortWindowS:    int64(o.ShortWindow / time.Second),
		LongWindowS:     int64(o.LongWindow / time.Second),
		WarnBurn:        o.WarnBurn,
		PageBurn:        o.PageBurn,
	}
}

func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	resp := SLOResponse{
		Enabled: s.slo != nil,
		Status:  s.syncSLO(),
	}
	if s.slo != nil {
		resp.Objectives = wireObjectives(s.slo.Objectives())
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSLOUpdate is POST /debug/slo: runtime reconfiguration of the
// live tracker's objectives. The update is validated and applied
// atomically — observation history is carried over, so the new burn
// rates are computed from the same rings the old objectives filled —
// and the response echoes the resolved objectives plus a fresh status.
func (s *Server) handleSLOUpdate(w http.ResponseWriter, r *http.Request) {
	if s.slo == nil {
		httpError(w, http.StatusConflict, "slo tracking is disabled; boot with objectives (topkd -slo-latency / -total-budget) to enable runtime reconfiguration")
		return
	}
	var upd SLOObjectives
	if err := json.NewDecoder(r.Body).Decode(&upd); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if err := s.slo.Reconfigure(upd.objectives()); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	obj := s.slo.Objectives()
	s.log.Info("slo reconfigured",
		"latency_target_ms", obj.LatencyTarget.Milliseconds(), "latency_goal", obj.LatencyGoal,
		"budget", obj.Budget, "horizon", obj.BudgetHorizon.String())
	writeJSON(w, http.StatusOK, SLOResponse{
		Enabled:    true,
		Objectives: wireObjectives(obj),
		Status:     s.syncSLO(),
	})
}

// syncSLO feeds the tracker the current session spend and republishes
// the burn-rate gauges — called on every scrape/readout, so the rings
// stay current without a sampler goroutine. Nil-safe when SLO is off.
func (s *Server) syncSLO() slo.Status {
	if s.slo != nil {
		s.slo.SyncSpend(s.cfg.Session.TMC())
	}
	st := s.slo.Snapshot()
	s.publishSLO(st)
	return st
}

// publishSLO mirrors the snapshot into registry gauges (milli-units;
// the registry is integer-only) so /metrics scrapes carry burn rates.
func (s *Server) publishSLO(st slo.Status) {
	if s.slo == nil || s.cfg.Telemetry == nil {
		return
	}
	reg := s.cfg.Telemetry.Obs().Registry()
	if reg == nil {
		return
	}
	stateVal := func(state string) int64 {
		switch state {
		case "page":
			return 2
		case "warn":
			return 1
		default:
			return 0
		}
	}
	if st.Latency.Enabled {
		reg.Gauge(obs.MSLOLatencyBurnShort).Set(int64(st.Latency.Short.Burn * 1000))
		reg.Gauge(obs.MSLOLatencyBurnLong).Set(int64(st.Latency.Long.Burn * 1000))
		reg.Gauge(obs.MSLOLatencyState).Set(stateVal(st.Latency.State))
	}
	if st.Budget.Enabled {
		reg.Gauge(obs.MSLOBudgetBurnShort).Set(int64(st.Budget.Short.Burn * 1000))
		reg.Gauge(obs.MSLOBudgetBurnLong).Set(int64(st.Budget.Long.Burn * 1000))
		reg.Gauge(obs.MSLOBudgetState).Set(stateVal(st.Budget.State))
		reg.Gauge(obs.MSLOBudgetRemaining).Set(st.Budget.Remaining)
		reg.Gauge(obs.MSLOBudgetExhaustS).Set(st.Budget.ExhaustSeconds)
	}
}

// SLOTracker exposes the tracker for tests; nil when SLO is off.
func (s *Server) SLOTracker() *slo.Tracker { return s.slo }
