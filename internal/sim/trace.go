package sim

import (
	"fmt"
	"io"

	"respat/internal/engine"
)

// Event is one entry of a simulated run's timeline; see engine.Event.
type Event = engine.Event

// TraceOne executes a single run of the configuration (cfg.Runs is
// ignored) and returns its full event timeline alongside the counters.
// It is intended for debugging protocols and for documentation — the
// timelines in README.md come from it.
func TraceOne(cfg Config, run int) ([]Event, Counters, error) {
	cfg.Runs = 1
	if err := cfg.Validate(); err != nil {
		return nil, Counters{}, err
	}
	r, err := newPatternRuns(&cfg)
	if err != nil {
		return nil, Counters{}, err
	}
	var events []Event
	r.ex.Record(func(e Event) { events = append(events, e) })
	cnt, _ := r.run(run)
	return events, cnt, nil
}

// WriteTimeline renders events one per line.
func WriteTimeline(w io.Writer, events []Event) error {
	for _, e := range events {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	return nil
}
