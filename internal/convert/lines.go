package convert

import (
	"errors"
	"fmt"
	"strings"
	"unicode/utf8"

	"uplan/internal/core"
)

// The shared layer of the line- and row-oriented converters: a line
// iterator, a tree builder that owns nesting and the root policy, and a
// reader over bordered tables. Each converter keeps only its format
// detection, per-line parsing and property mapping.

// lineIter iterates the newline-separated lines of a string in place. It
// yields exactly the segments strings.Split(s, "\n") would — including a
// final empty segment when the input ends with a newline — but without
// allocating the backing []string, which every text-format converter used
// to pay once per plan.
type lineIter struct {
	rest string
	line string
	n    int
	done bool
}

func newLineIter(s string) lineIter { return lineIter{rest: s} }

// next advances to the next line, reporting whether one was produced. The
// current line is in line; n is its 1-based line number.
func (it *lineIter) next() bool {
	if it.done {
		return false
	}
	if i := strings.IndexByte(it.rest, '\n'); i >= 0 {
		it.line = it.rest[:i]
		it.rest = it.rest[i+1:]
	} else {
		it.line, it.rest, it.done = it.rest, "", true
	}
	it.n++
	return true
}

var (
	errBlankOperator = errors.New("blank operator name")
	errMultipleRoots = errors.New("multiple root operators")
)

// openNode is a node on a treeBuilder's open path, with its nesting key.
type openNode struct {
	node *core.Node
	key  int
}

// treeBuilder assembles a plan tree from operator nodes met in document
// order, each with a nesting key: a column, an indent or a tree-art depth.
// A node becomes the last child of the nearest open node with a smaller
// key. A node with no such node is top-level: the first is the root, and a
// later one is an error unless adopt is set. Formats whose native output
// is a list of steps set adopt, and their extra top-level steps become the
// root's next children. The open path lives in a fixed array and spills
// to the heap only past its length, so a builder held in a local variable
// costs no allocation.
type treeBuilder struct {
	adopt bool
	root  *core.Node
	depth int // open nodes
	path  [16]openNode
	deep  []openNode // open nodes past len(path)
}

// at returns the open node at path index i, which is at most b.depth.
//
//uplan:hotpath
func (b *treeBuilder) at(i int) *openNode {
	if i < len(b.path) {
		return &b.path[i]
	}
	return &b.deep[i-len(b.path)]
}

// last returns the most recently added node that is still open — the one
// a property line belongs to — or nil before the first node.
//
//uplan:hotpath
func (b *treeBuilder) last() *core.Node {
	if b.depth == 0 {
		return nil
	}
	return b.at(b.depth - 1).node
}

// add attaches n, whose nesting key is key, and opens it.
//
//uplan:hotpath
func (b *treeBuilder) add(ar *core.PlanArena, n *core.Node, key int) error {
	if n.Op.Name == "" {
		return errBlankOperator
	}
	for b.depth > 0 && b.at(b.depth-1).key >= key {
		b.depth--
	}
	switch {
	case b.depth > 0:
		ar.AddChildIn(b.at(b.depth-1).node, n)
	case b.root == nil:
		b.root = n
	case b.adopt:
		ar.AddChildIn(b.root, n)
	default:
		return errMultipleRoots
	}
	if b.depth-len(b.path) == len(b.deep) { // spill a path's length at a time
		b.deep = append(b.deep, make([]openNode, len(b.path))...)
	}
	*b.at(b.depth) = openNode{n, key}
	b.depth++
	return nil
}

// table is a parsed bordered table: its header and its data rows. A row
// holds only the cells its line reaches, so a table's cells never outnumber
// its bytes; cell reads the missing ones as "".
type table struct {
	header []string
	rows   [][]string
}

// col returns the index of the first header cell equal to name under
// case folding, or -1.
//
//uplan:hotpath
func (t *table) col(name string) int {
	for i, h := range t.header {
		if strings.EqualFold(h, name) {
			return i
		}
	}
	return -1
}

// cell returns row r's cell in column i, or "" when i is -1 or the row
// ends before column i.
//
//uplan:hotpath
func (t *table) cell(r, i int) string {
	if row := t.rows[r]; i >= 0 && i < len(row) {
		return row[i]
	}
	return ""
}

// parseAlignedTable parses a +---+ bordered table by column offsets taken
// from the border line, preserving leading whitespace inside cells (needed
// for tree-art columns). Cells are right-trimmed only. The renderer pads
// cells to a count of runes, so border column k is a row's k-th rune: an
// ASCII row is cut at the border's byte offsets, and a row holding
// multi-byte runes (TiDB's ├─, │ and └─ tree art) at the byte offsets of
// those runes.
//
//uplan:hotpath
func parseAlignedTable(s string) (table, error) {
	var spans [][2]int
	var t table
	for it := newLineIter(s); it.next(); {
		line := strings.TrimRight(it.line, " \r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "+") && spans == nil {
			// Border line: derive column spans between '+' markers.
			start := 0
			for i := 1; i < len(line); i++ {
				if line[i] == '+' {
					spans = append(spans, [2]int{start + 1, i})
					start = i
				}
			}
			continue
		}
		if spans == nil || !strings.HasPrefix(line, "|") {
			continue
		}
		// A row of single-byte runes (invalid UTF-8 bytes count as one
		// each) is cut at byte offsets directly.
		width := utf8.RuneCountInString(line)
		bytewise := width == len(line)
		// Span starts are distinct positive columns, so this loop stops
		// within width steps however wide the border is.
		n := 0
		for n < len(spans) && spans[n][0] < width {
			n++
		}
		cells := make([]string, n)
		col, off := 0, 0 // a rune column of line and its byte offset
		for i, sp := range spans[:n] {
			lo, hi := sp[0], min(sp[1], width)
			if !bytewise {
				// Spans ascend, so one walk over the row maps them all.
				col, off = runeOffset(line, col, off, lo)
				lo = off
				col, off = runeOffset(line, col, off, hi)
				hi = off
			}
			cell := strings.TrimRight(line[lo:hi], " ")
			// Drop the single leading padding space the renderer adds.
			cells[i] = strings.TrimPrefix(cell, " ")
		}
		if t.header == nil {
			for i := range cells {
				cells[i] = strings.TrimSpace(cells[i])
			}
			t.header = cells
			continue
		}
		t.rows = append(t.rows, cells)
	}
	if t.header == nil {
		return t, fmt.Errorf("convert: no aligned table found in input")
	}
	return t, nil
}

// runeOffset advances from rune column col at byte offset off of s to
// rune column target (at most s's rune count) and returns the new column
// and its byte offset.
func runeOffset(s string, col, off, target int) (int, int) {
	for ; col < target; col++ {
		_, size := utf8.DecodeRuneInString(s[off:])
		off += size
	}
	return col, off
}

// parseASCIITable parses a +---+ bordered table into header + rows.
//
//uplan:hotpath
func parseASCIITable(s string) (table, error) {
	var t table
	for it := newLineIter(s); it.next(); {
		line := strings.TrimSpace(it.line)
		if !strings.HasPrefix(line, "|") {
			continue
		}
		// Walk the "|"-separated cells in place; the segment after the last
		// "|" (usually empty) is dropped, as strings.Split-and-trim did.
		cells := make([]string, 0, strings.Count(line[1:], "|"))
		for rest := line[1:]; ; {
			i := strings.IndexByte(rest, '|')
			if i < 0 {
				break
			}
			cells = append(cells, strings.TrimSpace(rest[:i]))
			rest = rest[i+1:]
		}
		if t.header == nil {
			if len(cells) > 0 { // a header needs a cell
				t.header = cells
			}
			continue
		}
		t.rows = append(t.rows, cells)
	}
	if t.header == nil {
		return t, fmt.Errorf("convert: no table found in input")
	}
	return t, nil
}
