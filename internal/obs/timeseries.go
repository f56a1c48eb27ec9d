package obs

import "math"

// TSPhase tags a time-series row with the engine phase it was recorded
// in.
type TSPhase uint8

const (
	TSPhaseOther TSPhase = iota
	TSPhaseWarmup
	TSPhaseMeasure
	TSPhaseWindow      // sampled detailed window (inside measure)
	TSPhaseFastForward // sampled functional fast-forward
	TSPhaseSnapshot
)

var tsPhaseNames = [...]string{"other", "warmup", "measure", "window", "fastforward", "snapshot"}

// String returns the phase's name.
func (p TSPhase) String() string {
	if int(p) < len(tsPhaseNames) {
		return tsPhaseNames[p]
	}
	return "other"
}

// TSPhaseOf maps a trace-span phase name to its row tag.
func TSPhaseOf(name string) TSPhase {
	switch name {
	case "warmup":
		return TSPhaseWarmup
	case "measure":
		return TSPhaseMeasure
	case "window":
		return TSPhaseWindow
	case "fastforward":
		return TSPhaseFastForward
	case "snapshot":
		return TSPhaseSnapshot
	}
	return TSPhaseOther
}

// MarshalText encodes the phase by name, so a phase column is a JSON
// array of strings.
func (p TSPhase) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText decodes a phase name; an unknown one reads as other.
func (p *TSPhase) UnmarshalText(b []byte) error {
	*p = TSPhaseOf(string(b))
	return nil
}

// Series is one run's per-window telemetry, one row per live publish,
// stored in columns: row i is entry i of every column. It travels inside
// the run's manifest record (Manifest.Series) and encoding/json encodes
// it as is. Floats are stored as float32 (ample for rates, cycles per
// transaction and seconds, and half the bytes) and always finite: a
// value with no defined result, such as cycles per transaction over a
// window without transactions, is stored as -1.
//
// The recording path (Begin, VM) only appends to columns that
// NewSeries preallocated, so within that capacity it allocates nothing
// and can sit on the simulator's live publish cadence.
type Series struct {
	Phase []TSPhase `json:"phase"`
	Cycle []uint64  `json:"cycle"` // simulated cycle at the row
	Wall  []float32 `json:"wall"`  // host seconds since the run started
	MemQ  []uint32  `json:"memq"`  // memory-controller queue depth
	RelCI []float32 `json:"rel_ci"`

	// Per-VM columns, indexed [vm][row]: references issued since the
	// previous row, that window's LLC miss rate and its cycles per
	// transaction.
	Refs [][]uint64  `json:"refs"`
	Miss [][]float32 `json:"miss"`
	CPT  [][]float32 `json:"cpt"`
}

// NewSeries returns an empty series for nVM VMs with room for rows rows.
func NewSeries(nVM, rows int) *Series {
	s := &Series{
		Phase: make([]TSPhase, 0, rows),
		Cycle: make([]uint64, 0, rows),
		Wall:  make([]float32, 0, rows),
		MemQ:  make([]uint32, 0, rows),
		RelCI: make([]float32, 0, rows),
		Refs:  make([][]uint64, nVM),
		Miss:  make([][]float32, nVM),
		CPT:   make([][]float32, nVM),
	}
	for v := range nVM {
		s.Refs[v] = make([]uint64, 0, rows)
		s.Miss[v] = make([]float32, 0, rows)
		s.CPT[v] = make([]float32, 0, rows)
	}
	return s
}

// Rows returns the number of rows recorded.
func (s *Series) Rows() int { return len(s.Cycle) }

// Begin appends a row's scalar columns. relCI < 0 marks a run without a
// sampling CI. The caller then fills the row's VM columns.
func (s *Series) Begin(phase TSPhase, cycle uint64, wall float64, memq int, relCI float64) {
	s.Phase = append(s.Phase, phase)
	s.Cycle = append(s.Cycle, cycle)
	s.Wall = append(s.Wall, finite(wall))
	s.MemQ = append(s.MemQ, uint32(memq))
	s.RelCI = append(s.RelCI, finite(relCI))
}

// VM appends VM v's columns to the row Begin started.
func (s *Series) VM(v int, refs uint64, miss, cpt float64) {
	s.Refs[v] = append(s.Refs[v], refs)
	s.Miss[v] = append(s.Miss[v], finite(miss))
	s.CPT[v] = append(s.CPT[v], finite(cpt))
}

// finite narrows f to a float32, storing -1 for NaN and for values
// outside float32's range, which encoding/json could not encode.
func finite(f float64) float32 {
	g := float32(f)
	if math.IsNaN(float64(g)) || math.IsInf(float64(g), 0) {
		return -1
	}
	return g
}
