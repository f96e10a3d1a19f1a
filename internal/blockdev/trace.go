package blockdev

// OpKind labels one operation of a block trace.
type OpKind int

// Block trace operation kinds.
const (
	OpRead OpKind = iota
	OpWrite
	OpTrim
	OpFlush
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpTrim:
		return "trim"
	case OpFlush:
		return "flush"
	default:
		return "?"
	}
}

// Op is one operation of a block trace (see workload.ParseTrace and
// workload.Replay).
type Op struct {
	Kind OpKind
	Off  int64
	Len  int64
}
