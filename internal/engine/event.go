package engine

import (
	"fmt"

	"respat/internal/core"
)

// EventKind classifies the timeline events an Executor emits to its
// recorder (Executor.Record).
type EventKind int

// Event kinds, in the order they typically appear.
const (
	EvOpDone      EventKind = iota // an operation completed
	EvFailStop                     // a fail-stop error struck
	EvSilent                       // a silent error corrupted the state
	EvDetect                       // a verification raised an alarm
	EvDiskRec                      // a disk recovery completed
	EvMemRec                       // a standalone memory recovery completed
	EvPatternDone                  // a pattern instance committed
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EvOpDone:
		return "op-done"
	case EvFailStop:
		return "fail-stop"
	case EvSilent:
		return "silent-error"
	case EvDetect:
		return "detected"
	case EvDiskRec:
		return "disk-recovery"
	case EvMemRec:
		return "mem-recovery"
	case EvPatternDone:
		return "pattern-done"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one entry of a run's timeline.
type Event struct {
	Time    float64 // virtual seconds
	Kind    EventKind
	Op      core.Op // for EvOpDone and EvDetect
	Segment int
	Pattern int // pattern instance index
}

// String renders one timeline line.
func (e Event) String() string {
	switch e.Kind {
	case EvOpDone:
		return fmt.Sprintf("t=%10.1f  p%02d s%02d  %v", e.Time, e.Pattern, e.Segment, e.Op)
	case EvDetect:
		return fmt.Sprintf("t=%10.1f  p%02d s%02d  ALARM (%v)", e.Time, e.Pattern, e.Segment, e.Op)
	case EvPatternDone:
		return fmt.Sprintf("t=%10.1f  p%02d      committed", e.Time, e.Pattern)
	default:
		return fmt.Sprintf("t=%10.1f  p%02d s%02d  %v", e.Time, e.Pattern, e.Segment, e.Kind)
	}
}
