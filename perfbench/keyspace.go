package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"respat/internal/core"
	"respat/internal/faults"
	"respat/internal/multilevel"
	"respat/internal/platform"
	"respat/internal/service"
)

// Endpoint paths of the serving key space.
const (
	pathPlan       = "/v1/plan"
	pathPlanExact  = "/v1/plan/exact"
	pathMultilevel = "/v1/plan/multilevel"
)

// Endpoint shares of the key space: about 30% multilevel requests with
// explicit params (L=2 and L=3), 15% first-order plans and the rest
// exact plans, the single-level ones spread over all six families.
const (
	shareMultilevel = 0.30
	shareFirstOrder = 0.15
)

// item is one configuration of the serving key space: the request a
// client sends for it and the decoded configuration, kept so the
// benchmark can route, recompute and replay it without parsing.
type item struct {
	path string
	body []byte
	key  service.Key

	kind  core.Kind
	costs core.Costs
	rates core.Rates
	ml    *multilevel.Params // non-nil for multilevel requests
}

// rng derives a decorrelated PCG stream from the workload seed.
func rng(seed, stream uint64) *rand.Rand {
	s1, s2 := faults.SplitSeed(seed, stream)
	return rand.New(rand.NewPCG(s1, s2))
}

// Streams under the workload seed.
const (
	streamKeys = iota + 1
	streamSequence
	streamSample
	streamCells
)

// shapeSeed fixes which endpoint, family and depth each popularity rank
// requests, the same at every workload seed: a seed varies the values
// (platform, scatter, request order), not the mix, so two seeds load
// the service with the same shape of work.
const shapeSeed = 0x5eed

// synthesize builds n configurations, item i being popularity rank i.
// Each is a Table 2 platform drawn at random, scattered x0.5..x2
// (fail-stop and silent rates, disk checkpoint and recovery costs) as
// cmd/respatd-bench does.
func synthesize(seed uint64, n int) ([]item, error) {
	plats := platform.Table2()
	kinds := core.Kinds()
	shape, r := rng(shapeSeed, streamKeys), rng(seed, streamKeys)
	scatter := func(x float64) float64 { return x * math.Exp((r.Float64()*2-1)*math.Ln2) }
	items := make([]item, n)
	for i := range items {
		u := shape.Float64()
		kind := kinds[shape.IntN(len(kinds))]
		levels := 2 + shape.IntN(2)
		p := plats[r.IntN(len(plats))]
		p.Rates.FailStop = scatter(p.Rates.FailStop)
		p.Rates.Silent = scatter(p.Rates.Silent)
		p.Costs.DiskCkpt = scatter(p.Costs.DiskCkpt)
		p.Costs.DiskRec = scatter(p.Costs.DiskRec)
		it := &items[i]
		switch {
		case u < shareMultilevel:
			params, err := multilevel.FromPlatform(p, levels)
			if err != nil {
				return nil, fmt.Errorf("config %d: %w", i, err)
			}
			it.path, it.ml = pathMultilevel, &params
			it.key = service.EncodeMultilevelKey(params)
			it.body, err = json.Marshal(service.MultilevelPlanRequest{Params: &params})
			if err != nil {
				return nil, err
			}
			continue
		case u < shareMultilevel+shareFirstOrder:
			it.path = pathPlan
			it.key = service.EncodeKey(service.ModePlan, kind, p.Costs, p.Rates)
		default:
			it.path = pathPlanExact
			it.key = service.EncodeKey(service.ModePlanExact, kind, p.Costs, p.Rates)
		}
		it.kind, it.costs, it.rates = kind, p.Costs, p.Rates
		costs, rates := p.Costs, p.Rates
		var err error
		it.body, err = json.Marshal(service.PlanRequest{Kind: kind.String(), Costs: &costs, Rates: &rates})
		if err != nil {
			return nil, err
		}
	}
	return items, nil
}

// sequence is the seeded request stream of a serving workload. Request
// i's configuration and entry replica are pure functions of (seed, i),
// so two clients drawing indices from a shared counter replay the same
// stream in every run, and any prefix is reproducible on its own.
type sequence struct {
	seed     uint64
	cdf      []float64 // Zipf(1.1) over popularity ranks
	replicas int
}

// zipfExponent shapes key popularity: a few hot keys, a long cold tail.
const zipfExponent = 1.1

func newSequence(seed uint64, items, replicas int) *sequence {
	cdf := make([]float64, items)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), zipfExponent)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &sequence{seed: seed, cdf: cdf, replicas: replicas}
}

// at returns request i: the item (its popularity rank) and the entry
// replica.
func (s *sequence) at(i int64) (item, entry int) {
	h := splitmix64(s.seed ^ splitmix64(uint64(i)+streamSequence<<56))
	u := float64(h>>11) / (1 << 53)
	rank := sort.SearchFloat64s(s.cdf, u)
	if rank >= len(s.cdf) {
		rank = len(s.cdf) - 1
	}
	return rank, int(splitmix64(h) % uint64(s.replicas))
}

// traceID is the forced X-Respat-Trace value of request i of the named
// phase in a traced run: 16 lowercase hex digits, distinct per request.
func (s *sequence) traceID(phase string, i int64) string {
	h := s.seed
	for _, c := range []byte(phase) {
		h = splitmix64(h ^ uint64(c))
	}
	return fmt.Sprintf("%016x", splitmix64(h^uint64(i)*0x9e3779b97f4a7c15))
}

// splitmix64 is the standard 64-bit finalising mix.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
