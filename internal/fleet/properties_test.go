package fleet

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"respat/internal/core"
)

// TestFleetWorkerInvarianceRandom extends TestFleetReportByteIdentical
// to seeded-random seeds, modes, families and depths: the JSON report
// is byte-identical for Workers in {1, 2, 3, 7}.
func TestFleetWorkerInvarianceRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 7))
	for trial := 0; trial < 6; trial++ {
		cfg := Config{
			Platform: hera(t), Nodes: 64, Mode: Mode(trial % int(numModes)),
			Family: core.Kinds()[rng.IntN(6)], Levels: 1 + rng.IntN(4),
			NumJobs: 120, Rate: 0.2, JobWork: 86400, WorkSpread: 4,
			Backfill: rng.IntN(2) == 0, Seed: rng.Uint64(),
		}
		var ref []byte
		for _, w := range []int{1, 2, 3, 7} {
			cfg.Workers = w
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("trial %d (%v): %v", trial, cfg.Mode, err)
			}
			b, err := res.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = b
			} else if !bytes.Equal(ref, b) {
				t.Fatalf("trial %d (%v, seed %d): Workers=%d report differs from Workers=1", trial, cfg.Mode, cfg.Seed, w)
			}
		}
	}
}
