package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"

	"ssdtp/internal/sim"
)

// Chrome trace-event / Perfetto JSON export (DESIGN.md §9). Each cell renders
// as one process; within it, flash operations become properly-nested B/E
// thread events on a per-(channel, chip, die) track (die exclusivity
// guarantees the nesting), garbage-collection jobs become B/E events on a
// per-parallel-unit track, and host request spans — which overlap freely —
// become async b/e pairs on a shared "requests" track. Timestamps are
// microseconds with nanosecond precision (fixed three decimals), serialization
// is hand-rolled with a fixed field order, and same-timestamp events keep
// record order, so the bytes are a pure function of the records: byte-identical
// at any -parallel value.

// pfEvent is one rendered trace event awaiting the timestamp sort.
type pfEvent struct {
	ts   sim.Time
	json []byte
}

// attrInt finds an integer attribute by key.
func attrInt(attrs []Attr, key string) (int64, bool) {
	for i := range attrs {
		if attrs[i].key == key && !attrs[i].isStr {
			return attrs[i].num, true
		}
	}
	return 0, false
}

// appendTS renders a nanosecond simulated time as a microsecond JSON number
// with three decimals.
func appendTS(dst []byte, t sim.Time) []byte {
	if t < 0 {
		// Simulated clocks start at zero; negative is impossible, but render
		// something sane rather than corrupting the sign of the fraction.
		dst = append(dst, '-')
		t = -t
	}
	dst = strconv.AppendInt(dst, int64(t)/1000, 10)
	dst = append(dst, '.')
	frac := int64(t) % 1000
	dst = append(dst, byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
	return dst
}

// appendArgs renders attrs as a JSON "args" object member (with leading
// comma), or nothing when empty.
func appendArgs(dst []byte, attrs []Attr) []byte {
	if len(attrs) == 0 {
		return dst
	}
	dst = append(dst, `,"args":{`...)
	for i := range attrs {
		a := &attrs[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendQuote(dst, a.key)
		dst = append(dst, ':')
		if a.isStr {
			dst = strconv.AppendQuote(dst, a.str)
		} else {
			dst = strconv.AppendInt(dst, a.num, 10)
		}
	}
	dst = append(dst, '}')
	return dst
}

// perfettoCell renders one cell's records into metadata and timed events.
// pid identifies the cell process.
func perfettoCell(pid int, t *Tracer) (meta [][]byte, events []pfEvent) {
	appendMeta := func(name string, tid int, value string) {
		line := []byte(`{"ph":"M","pid":`)
		line = strconv.AppendInt(line, int64(pid), 10)
		line = append(line, `,"tid":`...)
		line = strconv.AppendInt(line, int64(tid), 10)
		line = append(line, `,"name":`...)
		line = strconv.AppendQuote(line, name)
		line = append(line, `,"args":{"name":`...)
		line = strconv.AppendQuote(line, value)
		line = append(line, `}}`...)
		meta = append(meta, line)
	}
	label := t.Label()
	if label == "" {
		label = "cell"
	}
	appendMeta("process_name", 0, label)

	const reqTID = 1
	appendMeta("thread_name", reqTID, "requests")
	tids := map[string]int{}
	track := func(key string) int {
		tid, ok := tids[key]
		if !ok {
			tid = reqTID + 1 + len(tids)
			tids[key] = tid
			appendMeta("thread_name", tid, key)
		}
		return tid
	}

	head := func(ph string, tid int) []byte {
		line := []byte(`{"ph":"`)
		line = append(line, ph...)
		line = append(line, `","pid":`...)
		line = strconv.AppendInt(line, int64(pid), 10)
		line = append(line, `,"tid":`...)
		line = strconv.AppendInt(line, int64(tid), 10)
		return line
	}
	finish := func(line []byte, ts sim.Time, name string) []byte {
		line = append(line, `,"ts":`...)
		line = appendTS(line, ts)
		line = append(line, `,"name":`...)
		line = strconv.AppendQuote(line, name)
		return line
	}

	for i := range t.recs {
		r := &t.recs[i]
		if r.kind == recEvent {
			line := head("i", reqTID)
			line = finish(line, r.start, r.name)
			line = append(line, `,"s":"t"`...)
			line = appendArgs(line, r.attrs)
			line = append(line, '}')
			events = append(events, pfEvent{ts: r.start, json: line})
			continue
		}

		// Spans. Flash operations that hold a die nest properly on a
		// per-die thread track; GC jobs on a per-PU track; everything else
		// (host requests, suspend-bypass reads) overlaps freely and goes on
		// the shared async track.
		var tid int
		async := true
		cat := "req"
		if strings.HasPrefix(r.name, "nand.") {
			cat = "nand"
			ch, okc := attrInt(r.attrs, "ch")
			chip, okh := attrInt(r.attrs, "chip")
			die, okd := attrInt(r.attrs, "die")
			if okc && okh && okd {
				key := "ch" + strconv.FormatInt(ch, 10) +
					"/chip" + strconv.FormatInt(chip, 10) +
					"/die" + strconv.FormatInt(die, 10)
				tid = track(key)
				async = r.name == "nand.read.pri" // no die hold: may overlap
			}
		} else if r.name == "ftl.gc" || r.name == "ftl.wearlevel" {
			if pu, ok := attrInt(r.attrs, "pu"); ok {
				tid = track("gc/pu" + strconv.FormatInt(pu, 10))
				async = false
				cat = "gc"
			}
		}
		if tid == 0 {
			tid = reqTID
		}

		if async {
			id := strconv.FormatInt(int64(pid), 10) + "." + strconv.FormatUint(r.id, 10)
			b := head("b", tid)
			b = finish(b, r.start, r.name)
			b = append(b, `,"cat":`...)
			b = strconv.AppendQuote(b, cat)
			b = append(b, `,"id":`...)
			b = strconv.AppendQuote(b, id)
			b = appendArgs(b, r.attrs)
			b = append(b, '}')
			events = append(events, pfEvent{ts: r.start, json: b})

			e := head("e", tid)
			e = finish(e, r.end, r.name)
			e = append(e, `,"cat":`...)
			e = strconv.AppendQuote(e, cat)
			e = append(e, `,"id":`...)
			e = strconv.AppendQuote(e, id)
			e = append(e, '}')
			events = append(events, pfEvent{ts: r.end, json: e})
			continue
		}

		b := head("B", tid)
		b = finish(b, r.start, r.name)
		b = appendArgs(b, r.attrs)
		b = append(b, '}')
		events = append(events, pfEvent{ts: r.start, json: b})

		e := head("E", tid)
		e = finish(e, r.end, r.name)
		e = append(e, '}')
		events = append(events, pfEvent{ts: r.end, json: e})
	}
	return meta, events
}

// writePerfetto renders the cells (already sorted by label) as one Chrome
// trace-event JSON document loadable in ui.perfetto.dev, one process per
// cell.
func writePerfetto(w io.Writer, cells []*Tracer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(line []byte) error {
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
		_, err := bw.Write(line)
		return err
	}
	for i, t := range cells {
		meta, events := perfettoCell(i+1, t)
		for _, line := range meta {
			if err := emit(line); err != nil {
				return err
			}
		}
		// Stable by timestamp: same-timestamp events keep record order, so
		// an op ending at t precedes the next op beginning at t on its track.
		sort.SliceStable(events, func(a, b int) bool { return events[a].ts < events[b].ts })
		for _, ev := range events {
			if err := emit(ev.json); err != nil {
				return err
			}
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
