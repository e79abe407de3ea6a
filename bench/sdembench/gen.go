package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"sdem/internal/core"
	"sdem/internal/power"
	"sdem/internal/serve"
	"sdem/internal/stats"
	"sdem/internal/task"
	"sdem/internal/workload"
)

// roundSize is the number of request bodies a serve workload generates
// at a time. Rounds are generated, and their responses checked, between
// timed phases.
const roundSize = 4096

// Seed-derivation tags, one per independent random stream of a run.
const (
	tagMix uint64 = iota + 1
	tagPick
	tagSet
	tagHot
	tagStream
	tagFaults
	tagWarm
)

// corpusSeed seeds the set-up corpus: round 0's requests on a serve
// workload, the warm-up stream on stream-soak. Every set-up of every run
// answers the same corpus, whatever --seed is, and energy_per_task_j is
// taken over it, so the metric is exact: a change that leaves every
// schedule alone leaves it bit-identical on every seed. The timed phase
// draws from --seed.
const corpusSeed = 0

// request is one generated serve request plus what its checks need.
type request struct {
	body  []byte
	tasks task.Set
	// lb is core.LowerBound of the set, computed at generation time.
	lb float64
	// hot is the hot-set index the request replays, or -1 when the set
	// was drawn for this request alone.
	hot   int
	sched bool // include_schedule was set
}

// serveSpec is the request mix of one serve workload.
type serveSpec struct {
	route string
	// op and scheduler are the arguments the server passes to
	// encode.CanonicalKey for this route.
	op, scheduler string
	// hotFrac of the requests replay one of hotSets fixed sets.
	hotFrac float64
	hotSets int
	// schedEvery > 0 sets include_schedule on every schedEvery-th request.
	schedEvery int64
	// round is the number of requests generated at a time (roundSize).
	round int
	// warm is the number of round-0 requests a set-up sends to warm a
	// fresh server.
	warm int
	// draw generates the task set of request ordinal from its seed.
	draw func(seed, ordinal int64) (task.Set, error)
}

// synthetic draws §8.1.2 sets of n tasks (general task model, so only
// the online policies of /v1/simulate accept them).
func synthetic(n int) func(seed, _ int64) (task.Set, error) {
	return func(seed, _ int64) (task.Set, error) {
		return workload.Synthetic(workload.SyntheticConfig{N: n}, seed)
	}
}

// offlineMix draws the /v1/solve mix: request ordinals ≡ 15 (mod 16)
// carry an agreeable-deadline set of 8 tasks (§5 dynamic program), all
// others a common-release set of 100 tasks (§4).
func offlineMix(seed, ordinal int64) (task.Set, error) {
	if ordinal%16 == 15 {
		return agreeableSet(8, seed), nil
	}
	return commonReleaseSet(100, seed)
}

// commonReleaseSet draws §8.1.2 workloads released together at 0 with
// windows of 11–22 ms.
func commonReleaseSet(n int, seed int64) (task.Set, error) {
	ts, err := workload.Synthetic(workload.SyntheticConfig{N: n}, seed)
	if err != nil {
		return nil, err
	}
	for i := range ts {
		ts[i].Deadline = power.Milliseconds(10) + ts[i].Window()/10
		ts[i].Release = 0
	}
	return ts, nil
}

// agreeableSet draws n overlapping tasks whose deadlines never decrease
// with their releases: releases 5–25 ms apart, windows of 40–80 ms,
// 2–5·10⁶ cycles.
func agreeableSet(n int, seed int64) task.Set {
	r := rand.New(rand.NewSource(seed))
	ts := make(task.Set, n)
	var rel, dl float64
	for i := range ts {
		rel += power.Milliseconds(5 + 20*r.Float64())
		dl = max(dl, rel+power.Milliseconds(40+40*r.Float64()))
		ts[i] = task.Task{ID: i, Release: rel, Deadline: dl, Workload: 2e6 + 3e6*r.Float64()}
	}
	return ts
}

// unit maps (seed, dims...) onto [0, 1) deterministically.
func unit(seed int64, dims ...uint64) float64 {
	return float64(uint64(stats.DeriveSeed(seed, dims...))>>11) / (1 << 53)
}

// newRequest marshals one request body and computes its lower bound.
func newRequest(ts task.Set, sched bool, hot int, sys power.System) (request, error) {
	body, err := json.Marshal(serve.TaskRequest{Tasks: ts, IncludeSchedule: sched})
	if err != nil {
		return request{}, fmt.Errorf("marshalling a request body: %w", err)
	}
	return request{body: body, tasks: ts, lb: core.LowerBound(ts, sys), hot: hot, sched: sched}, nil
}

// hotRequests generates the fixed sets that hot requests replay.
func hotRequests(sp serveSpec, seed int64, sys power.System) ([]request, error) {
	hot := make([]request, sp.hotSets)
	for i := range hot {
		ts, err := sp.draw(stats.DeriveSeed(seed, tagHot, uint64(i)), -1)
		if err != nil {
			return nil, err
		}
		if hot[i], err = newRequest(ts, false, i, sys); err != nil {
			return nil, err
		}
	}
	return hot, nil
}

// genRound generates the requests of ordinals [round·sp.round,
// (round+1)·sp.round). The same seed always gives the same bodies.
func genRound(sp serveSpec, seed int64, round int, hot []request, sys power.System) ([]request, error) {
	out := make([]request, sp.round)
	for k := range out {
		ord := int64(round*sp.round + k)
		if len(hot) > 0 && unit(seed, tagMix, uint64(ord)) < sp.hotFrac {
			out[k] = hot[int(unit(seed, tagPick, uint64(ord))*float64(len(hot)))]
			continue
		}
		ts, err := sp.draw(stats.DeriveSeed(seed, tagSet, uint64(ord)), ord)
		if err != nil {
			return nil, err
		}
		sched := sp.schedEvery > 0 && ord%sp.schedEvery == 0
		if out[k], err = newRequest(ts, sched, -1, sys); err != nil {
			return nil, err
		}
	}
	return out, nil
}
