package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ssdtp/internal/blockdev"
)

// Trace text format: one op per line —
//
//	W <offset> <length>
//	R <offset> <length>
//	T <offset> <length>
//	F
//
// Lines starting with '#' and blank lines are ignored. The format matches
// what a blkparse-style post-processor produces, so traces move between
// tools as plain text.

// WriteTrace serializes ops in the text format. It is ParseTrace's inverse,
// which the trace fuzzer round-trips through.
func WriteTrace(w io.Writer, ops []blockdev.Op) error {
	bw := bufio.NewWriter(w)
	for _, op := range ops {
		var err error
		switch op.Kind {
		case blockdev.OpWrite:
			_, err = fmt.Fprintf(bw, "W %d %d\n", op.Off, op.Len)
		case blockdev.OpRead:
			_, err = fmt.Fprintf(bw, "R %d %d\n", op.Off, op.Len)
		case blockdev.OpTrim:
			_, err = fmt.Fprintf(bw, "T %d %d\n", op.Off, op.Len)
		case blockdev.OpFlush:
			_, err = fmt.Fprintln(bw, "F")
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxTraceLine bounds a single trace line. The format needs well under a
// hundred bytes per op, but bufio.Scanner's default 64 KiB cap turned a
// trace with one long comment line into an opaque "token too long" — so the
// limit is generous and the error, when it still triggers, names the line.
const maxTraceLine = 1 << 20

// ParseTrace reads the text format back. It validates as it parses — op
// lines need exactly two integer fields (a non-negative offset and a
// positive length), `F` takes no fields — and every error carries the
// 1-based line number, so a corrupt trace fails at parse time with a
// pointer to the bad line instead of exploding later inside a replay.
func ParseTrace(r io.Reader) ([]blockdev.Op, error) {
	var ops []blockdev.Op
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxTraceLine)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		var kind blockdev.OpKind
		switch fields[0] {
		case "W", "w":
			kind = blockdev.OpWrite
		case "R", "r":
			kind = blockdev.OpRead
		case "T", "t":
			kind = blockdev.OpTrim
		case "F", "f":
			if len(fields) != 1 {
				return nil, fmt.Errorf("workload: trace line %d: F takes no fields, got %q", line, text)
			}
			ops = append(ops, blockdev.Op{Kind: blockdev.OpFlush})
			continue
		default:
			return nil, fmt.Errorf("workload: trace line %d: unknown op %q", line, fields[0])
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("workload: trace line %d: want `%s off len`, got %d fields", line, fields[0], len(fields))
		}
		off, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: bad offset %q: %v", line, fields[1], err)
		}
		n, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: bad length %q: %v", line, fields[2], err)
		}
		if off < 0 {
			return nil, fmt.Errorf("workload: trace line %d: negative offset %d", line, off)
		}
		if n <= 0 {
			return nil, fmt.Errorf("workload: trace line %d: non-positive length %d", line, n)
		}
		ops = append(ops, blockdev.Op{Kind: kind, Off: off, Len: n})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: trace line %d: %w", line+1, err)
	}
	return ops, nil
}
