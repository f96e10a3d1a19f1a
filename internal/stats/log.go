package stats

// A Log's first block holds firstBlock values and each later block twice
// its predecessor, up to maxBlock: a short log stays small, and a long one
// allocates in fixed 32 KiB-scale steps.
const (
	firstBlock = 64
	maxBlock   = 4096
)

// Log is an append-only sequence kept in blocks that are never grown or
// copied once full. A single growing slice allocates about five times its
// final size (Go grows a large slice by about 1.25x per step) and copies
// all of it at every step; a Log allocates each value's slot once. The zero
// Log is empty and ready to use.
type Log[T any] struct {
	full [][]T // filled blocks, oldest first
	tail []T   // the block being filled; its capacity is fixed
	n    int
}

// Append adds v at the end of the log.
func (l *Log[T]) Append(v T) {
	if len(l.tail) == cap(l.tail) {
		l.grow()
	}
	l.tail = append(l.tail, v)
	l.n++
}

// grow files the full tail block and starts the next one.
func (l *Log[T]) grow() {
	size := firstBlock
	if c := cap(l.tail); c > 0 {
		l.full = append(l.full, l.tail)
		size = min(max(2*c, firstBlock), maxBlock)
	}
	l.tail = make([]T, 0, size)
}

// Len returns the number of values appended since the last Reset.
func (l *Log[T]) Len() int { return l.n }

// EachBlock calls fn on every block in order; together they hold the
// log's values in append order. fn may modify values in place but must not
// keep a block.
func (l *Log[T]) EachBlock(fn func([]T)) {
	for _, b := range l.full {
		fn(b)
	}
	if len(l.tail) > 0 {
		fn(l.tail)
	}
}

// flatten makes the log one block holding every value in order and returns
// it. A log already in one block is returned as is; otherwise the blocks
// are copied once into a buffer of exactly Len values, which replaces them.
func (l *Log[T]) flatten() []T {
	if len(l.full) > 0 {
		buf := make([]T, 0, l.n)
		for _, b := range l.full {
			buf = append(buf, b...)
		}
		buf = append(buf, l.tail...)
		clear(l.full)
		l.full, l.tail = l.full[:0], buf
	}
	return l.tail
}

// Reset empties the log. The tail block is kept for the values that follow.
func (l *Log[T]) Reset() {
	clear(l.full)
	l.full, l.tail, l.n = l.full[:0], l.tail[:0], 0
}
