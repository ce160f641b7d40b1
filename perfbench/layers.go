package main

import (
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"time"

	"respat/internal/multilevel"
	"respat/internal/service"
)

// perLayer lists every per-layer metric in report order. A traced run
// of any workload measures all of them. A layer the workload never
// enters is timed by a short companion phase of a workload that does,
// at the same seed: the serving workloads run two passes of
// paper-repro's cells for the harness, simulator and fleet layers;
// zipf-tail, which never forwards, sends cluster-hot traffic for the
// peer hop; paper-repro serves its plans from a 3-replica deployment.
var perLayer = []struct{ name, unit string }{
	{"service.app_us", "us"},
	{"service.decode_us", "us"},
	{"service.cache_lookup_us", "us"},
	{"service.unattributed_share", "ratio"},
	{"service.hit_ratio", "ratio"},
	{"service.cold_computes", "count"},
	{"service.evictions", "count"},
	{"service.coalesced", "count"},
	{"service.cold_compute_ms", "ms"},
	{"service.gate_wait_us", "us"},
	{"service.shed", "count"},
	{"cluster.forward_share", "ratio"},
	{"cluster.hop_us", "us"},
	{"cluster.hop_self_us", "us"},
	{"cluster.route_ns", "ns"},
	{"analytic.first_order_us", "us"},
	{"optimize.exact_ms", "ms"},
	{"multilevel.plan_ms", "ms"},
	{"multilevel.leaves_per_plan", "count"},
	{"multilevel.evaluated_per_plan", "count"},
	{"multilevel.pruned_ratio", "ratio"},
	{"analytic.eval_ns", "ns"},
	{"multilevel.eval_ns", "ns"},
	{"harness.table1_s", "s"},
	{"harness.fig6_s", "s"},
	{"harness.fig7_s", "s"},
	{"harness.fig8_s", "s"},
	{"harness.fig9_s", "s"},
	{"harness.ablation_s", "s"},
	{"harness.multilevel_study_s", "s"},
	{"sim.patterns_per_s", "1/s"},
	{"sched.cpu_util", "ratio"},
	{"fleet.pattern_jobs_per_s", "1/s"},
	{"fleet.multilevel_jobs_per_s", "1/s"},
	{"obs.tracing_overhead_us", "us"},
	{"bench.client_self_us", "us"},
}

// layerMetrics orders a traced run's measurements as perLayer declares
// them. Every declared metric must be measured exactly once, in its
// declared unit, and nothing else.
func layerMetrics(measured []metric) ([]metric, error) {
	byName := make(map[string]metric, len(measured))
	for _, m := range measured {
		if _, dup := byName[m.name]; dup {
			return nil, fmt.Errorf("per-layer metric %s measured twice", m.name)
		}
		byName[m.name] = m
	}
	out := make([]metric, 0, len(perLayer))
	for _, l := range perLayer {
		m, ok := byName[l.name]
		switch {
		case !ok:
			return nil, fmt.Errorf("per-layer metric %s was not measured", l.name)
		case m.unit != l.unit:
			return nil, fmt.Errorf("per-layer metric %s measured in %s, declared in %s", l.name, m.unit, l.unit)
		}
		delete(byName, l.name)
		out = append(out, m)
	}
	for name := range byName {
		return nil, fmt.Errorf("per-layer metric %s is not declared", name)
	}
	return out, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuUtil is CPU time over wall time times the usable cores.
func cpuUtil(cpu, wall time.Duration) float64 {
	return ratio(cpu.Seconds(), wall.Seconds()*float64(runtime.GOMAXPROCS(0)))
}

const (
	// routeKeys is how many requests of the timed sequence the
	// ring-route probe routes.
	routeKeys = 50_000
	// reproProbePasses is how many traced passes of paper-repro's cells
	// a serving workload's traced run makes to time the harness,
	// simulator and fleet layers.
	reproProbePasses = 2
	// hopProbeRequests is how many cluster-hot requests time the peer
	// hop in the traced run of a workload that never forwards.
	hopProbeRequests = 20_000
)

// traceServing is the traced run of a serving workload. A reference
// phase with cmd/respatd's default 1-in-64 sampling and a traced phase
// that samples and traces every request each run on a fresh set-up for
// half the time; the difference of their mean request times is the
// tracing overhead. The traced phase's spans give the service and
// cluster layers; a replay of the workload's configurations gives the
// planner layers; companion phases time the layers serving never
// enters.
func traceServing(spec servingSpec, o options) (result, error) {
	var res result
	half := o.seconds / 2
	ref, err := setUp(spec, o.seed, false)
	if err != nil {
		return res, err
	}
	rs := ref.timed(half)
	ref.l.tally(&res)
	refMean := mean(ref.l.latencies())
	res.fingerprint = fingerprintOf(spec, rs.fingerprint)
	util := cpuUtil(rs.cpu, rs.elapsed)
	ref = nil // free the reference deployment before the next set-up

	tr, err := setUp(spec, o.seed, true)
	if err != nil {
		return res, err
	}
	ts := tr.timed(half)
	tr.l.tally(&res)
	tr.recompute(&res, o.seed)
	measured, self := tr.l.spanLayers()
	measured = append(measured, self,
		metric{"service.hit_ratio", "ratio", ratio(float64(ts.total.hits), float64(ts.total.hits+ts.total.misses+ts.total.coalesced)), 0},
		metric{"service.cold_computes", "count", float64(ts.total.misses), 0},
		metric{"service.evictions", "count", float64(ts.total.evictions), 0},
		metric{"service.coalesced", "count", float64(ts.total.coalesced), 0},
		metric{"service.shed", "count", float64(ts.total.shed), 0},
		metric{"cluster.forward_share", "ratio", ratio(float64(ts.total.forwarded), float64(ts.sent)), int(ts.sent)},
		metric{"sched.cpu_util", "ratio", util, 0},
		metric{"obs.tracing_overhead_us", "us", (mean(tr.l.latencies()) - refMean) * 1e3, int(ts.sent)},
	)

	base := int64(0)
	if !spec.warmAll {
		base = spec.warmPrefix
	}
	keys := make([]service.Key, routeKeys)
	for i := range keys {
		idx, _ := tr.seq.at(base + int64(i))
		keys[i] = tr.items[idx].key
	}
	route, err := routeNS(keys)
	if err != nil {
		return res, err
	}
	measured = append(measured, metric{"cluster.route_ns", "ns", route, len(keys)})

	singles, mls := replaySample(tr.items, o.seed)
	rp, err := replay(singles, mls)
	if err != nil {
		return res, err
	}
	measured = append(measured, rp.metrics()...)
	files := []spanFile{{spec.name, tr.l.spanLogs()}}

	if spec.replicas == 1 {
		h, err := setUp(clusterHot, o.seed, true)
		if err != nil {
			return res, err
		}
		h.l.drive(0, hopProbeRequests, time.Time{}, h.seq.at, "request")
		h.l.tally(&res)
		layers, _ := h.l.spanLayers()
		for _, m := range layers {
			if strings.HasPrefix(m.name, "cluster.hop") {
				measured = append(measured, m)
			}
		}
		files = append(files, spanFile{spec.name + "-hop-probe", h.l.spanLogs()})
	}

	rr, err := setUpRepro(o.seed)
	if err != nil {
		return res, err
	}
	ph := rr.drive(time.Time{}, reproProbePasses, true, time.Now())
	ph.tally(&res)
	measured = append(measured, rr.layers(ph)...)
	files = append(files, spanFile{spec.name + "-repro-probe", ph.spanLogs()})

	if res.metrics, err = layerMetrics(measured); err != nil {
		return res, err
	}
	return res, writeSpanFiles(files, o.seed)
}

// spanFile is a set of span logs written to one file.
type spanFile struct {
	name string
	logs []*spanLog
}

// writeSpanFiles writes each set of span logs to its own file under
// traceDir.
func writeSpanFiles(files []spanFile, seed uint64) error {
	for _, f := range files {
		path, err := writeSpans(traceDir, fmt.Sprintf("%s-seed%d", f.name, seed), f.logs...)
		if err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Println("spans written to", path)
	}
	return nil
}

// spanLogs returns the clients' span logs.
func (l *load) spanLogs() []*spanLog {
	logs := make([]*spanLog, 0, len(l.clients))
	for c := range l.clients {
		logs = append(logs, &l.clients[c].log)
	}
	return logs
}

// spanLayers derives the service and cluster layer metrics from a
// traced load's spans, the hop metrics only when some request took a
// hop, and the client's self time per request. A timed request's
// serving replica is the owner its hop reached, or the entry replica
// when there was no hop.
func (l *load) spanLayers() (layers []metric, clientSelf metric) {
	hops := make(map[string]span)
	for c := range l.clients {
		for _, s := range l.clients[c].log.spans {
			if s.Name == "hop" && s.Parent == "request" {
				hops[s.Trace] = s
			}
		}
	}
	serving, all := newStageStats(), newStageStats()
	var requests, hopCount int
	var clientSelfNS, hopNS, hopSelfNS, unattributed, app float64
	for c := range l.clients {
		for _, s := range l.clients[c].log.spans {
			st := parseServerTiming(s.ServerTiming)
			all.add(st)
			if s.Parent != "request" && s.Name != "request" {
				continue // set-up traffic counts only for the cold path
			}
			if u, ok := unattributedMS(st); ok {
				a, _ := appMS(st)
				unattributed += u
				app += a
			}
			a, _ := appMS(st)
			switch s.Name {
			case "request":
				requests++
				clientSelfNS += selfNS(s, a)
				if h, ok := hops[s.Trace]; ok {
					serving.add(parseServerTiming(h.ServerTiming))
				} else {
					serving.add(st)
				}
			case "hop":
				hopCount++
				hopNS += float64(s.durNS())
				hopSelfNS += selfNS(s, a)
			}
		}
	}
	out := []metric{
		{"service.app_us", "us", serving.meanMS("app") * 1e3, serving.count["app"]},
		{"service.decode_us", "us", serving.meanMS("decode") * 1e3, serving.count["decode"]},
		{"service.cache_lookup_us", "us", serving.meanMS("cache_lookup") * 1e3, serving.count["cache_lookup"]},
		{"service.unattributed_share", "ratio", ratio(unattributed, app), 0},
		{"service.cold_compute_ms", "ms", all.meanMS("cold_compute"), all.count["cold_compute"]},
		{"service.gate_wait_us", "us", all.meanMS("gate_wait") * 1e3, all.count["gate_wait"]},
	}
	if hopCount > 0 {
		out = append(out,
			metric{"cluster.hop_us", "us", hopNS / float64(hopCount) / 1e3, hopCount},
			metric{"cluster.hop_self_us", "us", hopSelfNS / float64(hopCount) / 1e3, hopCount},
		)
	}
	return out, metric{"bench.client_self_us", "us", ratio(clientSelfNS, float64(requests)) / 1e3, requests}
}

// replaySample draws a seeded sample of the key space's single-level
// and multilevel configurations for the planner replay.
func replaySample(items []item, seed uint64) ([]singleConfig, []multilevel.Params) {
	var singles []singleConfig
	var mls []multilevel.Params
	for _, i := range rng(seed, streamSample).Perm(len(items)) {
		it := &items[i]
		switch {
		case it.ml != nil && len(mls) < replayMultilevel:
			mls = append(mls, *it.ml)
		case it.ml == nil && len(singles) < replaySingles:
			singles = append(singles, singleConfig{it.kind, it.costs, it.rates})
		}
		if len(singles) == replaySingles && len(mls) == replayMultilevel {
			break
		}
	}
	return singles, mls
}
