package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/sim"
)

// Relative tolerances of the output checks.
const (
	// lbSlack admits rounding below core.LowerBound.
	lbSlack = 1e-9
	// auditTol bounds the gap between a response's energy_j and the
	// re-audit of the schedule it returned.
	auditTol = 1e-9
)

// response is the part of a /v1/solve or /v1/simulate answer the checks
// read.
type response struct {
	N        int                `json:"n"`
	EnergyJ  float64            `json:"energy_j"`
	Schedule *schedule.Schedule `json:"schedule"`
}

// tally accumulates the checked outcomes of a run's timed requests.
type tally struct {
	attempted, failed int64
	// energy and tasks sum energy_j and n over distinct task sets, in
	// request-ordinal order, so the quotient is deterministic in the
	// requests answered: a hot set counts on its first answer only.
	// energy_per_task_j is the quotient over the set-up corpus.
	energy, tasks float64
	seenHot       map[int]bool
	respBytes     int64
}

// add checks the first len(out) answers of reqs and folds them in.
func (t *tally) add(reqs []request, out []outcome, sys power.System) error {
	for i, o := range out {
		t.attempted++
		t.respBytes += int64(len(o.body))
		if o.code != http.StatusOK {
			t.failed++
			continue
		}
		resp, err := checkResponse(reqs[i], o.body, sys)
		if err != nil {
			return err
		}
		if h := reqs[i].hot; h < 0 || !t.seenHot[h] {
			if h >= 0 {
				t.seenHot[h] = true
			}
			t.energy += resp.EnergyJ
			t.tasks += float64(resp.N)
		}
	}
	return nil
}

// checkResponse verifies one 200 answer: it parses, covers every task,
// does not undercut the certified lower bound, and any schedule it
// returns validates and re-audits to its energy_j.
func checkResponse(r request, body []byte, sys power.System) (*response, error) {
	var resp response
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("check: response does not parse: %w", err)
	}
	if resp.N != len(r.tasks) {
		return nil, fmt.Errorf("check: response covers n=%d tasks, request has %d", resp.N, len(r.tasks))
	}
	if resp.EnergyJ < r.lb*(1-lbSlack) {
		return nil, fmt.Errorf("check: energy %.12g J undercuts the lower bound %.12g J", resp.EnergyJ, r.lb)
	}
	if !r.sched {
		return &resp, nil
	}
	if resp.Schedule == nil {
		return nil, fmt.Errorf("check: include_schedule was set but no schedule came back")
	}
	if err := resp.Schedule.Validate(r.tasks, schedule.ValidateOptions{SpeedMax: sys.Core.SpeedMax}); err != nil {
		return nil, fmt.Errorf("check: returned schedule is invalid: %w", err)
	}
	audited := sim.ComponentBreakdown(schedule.Audit(resp.Schedule, sys)).Total()
	if math.Abs(audited-resp.EnergyJ) > auditTol*math.Abs(resp.EnergyJ) {
		return nil, fmt.Errorf("check: schedule re-audits to %.12g J, response says %.12g J", audited, resp.EnergyJ)
	}
	return &resp, nil
}
