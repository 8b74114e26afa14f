// Package catalog holds the table statistics and join graphs that feed the
// RAQO optimizer and the execution simulator.
//
// A Schema is a set of base tables with cardinality statistics plus a
// JoinGraph: the join edges between tables, each carrying a join
// selectivity. Only statistics are stored — the optimizer and the simulator
// never need actual tuples. The package ships the TPC-H schema (scaled by a
// scale factor) and the paper's randomly generated schema (Section VII
// Setup: 100–200 byte rows, 100K–2M rows, random join edges with TPC-H-like
// selectivities).
package catalog

import (
	"fmt"
	"sort"
	"sync/atomic"

	"raqo/internal/units"
)

// Table describes one base relation by its statistics.
type Table struct {
	Name     string
	Rows     int64 // cardinality
	RowBytes int   // average row width in bytes
}

// Size returns the estimated on-disk size of the table.
func (t Table) Size() units.Bytes { return units.Bytes(t.Rows * int64(t.RowBytes)) }

// String renders the table with its statistics.
func (t Table) String() string {
	return fmt.Sprintf("%s(rows=%d, rowBytes=%d, size=%s)", t.Name, t.Rows, t.RowBytes, t.Size())
}

// JoinEdge is an undirected join-graph edge between two tables with the
// selectivity of the join predicate: |A ⋈ B| = |A|·|B|·Selectivity.
type JoinEdge struct {
	A, B        string
	Selectivity float64
}

// Schema is a set of tables plus the join graph over them.
type Schema struct {
	tables map[string]Table
	edges  map[string]map[string]float64 // adjacency with selectivities
	names  []string                      // sorted table names for determinism

	// idx is the join-graph index derived from the fields above: nil after
	// a mutation, rebuilt by the next Index call.
	idx atomic.Pointer[Index]
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{
		tables: make(map[string]Table),
		edges:  make(map[string]map[string]float64),
	}
}

// AddTable registers a table. It returns an error if the name is empty,
// already registered, or the statistics are non-positive.
func (s *Schema) AddTable(t Table) error {
	if t.Name == "" {
		return fmt.Errorf("catalog: table name must be non-empty")
	}
	if t.Rows <= 0 || t.RowBytes <= 0 {
		return fmt.Errorf("catalog: table %s: rows and rowBytes must be positive", t.Name)
	}
	if _, dup := s.tables[t.Name]; dup {
		return fmt.Errorf("catalog: duplicate table %s", t.Name)
	}
	s.tables[t.Name] = t
	i := sort.SearchStrings(s.names, t.Name)
	s.names = append(s.names, "")
	copy(s.names[i+1:], s.names[i:])
	s.names[i] = t.Name
	s.idx.Store(nil)
	return nil
}

// AddJoin registers an undirected join edge with the given selectivity.
func (s *Schema) AddJoin(a, b string, selectivity float64) error {
	if a == b {
		return fmt.Errorf("catalog: self-join edge on %s", a)
	}
	if _, ok := s.tables[a]; !ok {
		return fmt.Errorf("catalog: unknown table %s", a)
	}
	if _, ok := s.tables[b]; !ok {
		return fmt.Errorf("catalog: unknown table %s", b)
	}
	if selectivity <= 0 || selectivity > 1 {
		return fmt.Errorf("catalog: join %s-%s: selectivity %v out of (0,1]", a, b, selectivity)
	}
	if s.edges[a] == nil {
		s.edges[a] = make(map[string]float64)
	}
	if s.edges[b] == nil {
		s.edges[b] = make(map[string]float64)
	}
	s.edges[a][b] = selectivity
	s.edges[b][a] = selectivity
	s.idx.Store(nil)
	return nil
}

// Table looks up a table by name.
func (s *Schema) Table(name string) (Table, bool) {
	t, ok := s.tables[name]
	return t, ok
}

// MustTable looks up a table by name and panics if it does not exist. It is
// intended for statically known schemas such as TPC-H.
func (s *Schema) MustTable(name string) Table {
	t, ok := s.tables[name]
	if !ok {
		panic(fmt.Sprintf("catalog: unknown table %s", name))
	}
	return t
}

// Tables returns all table names in sorted order.
func (s *Schema) Tables() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// NumTables returns the number of tables in the schema.
func (s *Schema) NumTables() int { return len(s.names) }

// Selectivity returns the join selectivity between two tables and whether a
// join edge exists.
func (s *Schema) Selectivity(a, b string) (float64, bool) {
	sel, ok := s.edges[a][b]
	return sel, ok
}

// Joinable reports whether a join edge exists between a and b.
func (s *Schema) Joinable(a, b string) bool {
	_, ok := s.edges[a][b]
	return ok
}

// Neighbors returns the tables joinable with the given one, sorted.
func (s *Schema) Neighbors(name string) []string {
	adj := s.edges[name]
	out := make([]string, 0, len(adj))
	for n := range adj {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Edges returns all join edges with A < B, sorted, for deterministic
// iteration.
func (s *Schema) Edges() []JoinEdge {
	var out []JoinEdge
	for _, a := range s.names {
		for b, sel := range s.edges[a] {
			if a < b {
				out = append(out, JoinEdge{A: a, B: b, Selectivity: sel})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Connected reports whether the given tables form a connected subgraph of
// the join graph. A query over a disconnected set would require a cross
// product, which the planners reject.
func (s *Schema) Connected(tables []string) bool {
	if len(tables) == 0 {
		return false
	}
	g := s.Index()
	want := make([]uint64, g.words)
	for _, t := range tables {
		r := g.Rank(t)
		if r < 0 {
			return false
		}
		want[r/64] |= 1 << (r % 64)
	}
	return g.connected(want)
}

// Clone returns a deep copy of the schema. Useful when an experiment wants
// to override one table's statistics (e.g. sampling orders down to 3.4 GB)
// without disturbing the shared schema.
func (s *Schema) Clone() *Schema {
	c := NewSchema()
	for _, name := range s.names {
		if err := c.AddTable(s.tables[name]); err != nil {
			panic(err) // cannot happen: source schema is valid
		}
	}
	for _, e := range s.Edges() {
		if err := c.AddJoin(e.A, e.B, e.Selectivity); err != nil {
			panic(err)
		}
	}
	return c
}

// SetTableSize overrides a table's statistics so that its total size becomes
// approximately the given number of bytes, keeping the row width. This
// mirrors the paper's uniform-sampling filter on orders ("we added a uniform
// sampling filter on o_orderkey, which allowed us to select on demand a
// specific fraction of the table").
func (s *Schema) SetTableSize(name string, size units.Bytes) error {
	t, ok := s.tables[name]
	if !ok {
		return fmt.Errorf("catalog: unknown table %s", name)
	}
	rows := int64(size) / int64(t.RowBytes)
	if rows < 1 {
		rows = 1
	}
	t.Rows = rows
	s.tables[name] = t
	s.idx.Store(nil)
	return nil
}
