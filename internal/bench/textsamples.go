package bench

import (
	"fmt"

	"uplan/internal/dbms"
	"uplan/internal/explain"
)

// TextSample is one dialect's representative text-format plan, the input
// of the root BenchmarkConvertText.
type TextSample struct {
	// Name is the reporting label ("mysql-table", "tidb", …).
	Name string
	// Dialect is the converter key the sample parses under.
	Dialect string
	// Raw is the serialized plan.
	Raw string
}

// mysqlTableSample is a classic tabular EXPLAIN; the simulated engine only
// emits TREE/JSON, so the table format is pinned here.
const mysqlTableSample = `+----+-------------+-------+------+---------------+--------+---------+-------+------+-------------+
| id | select_type | table | type | possible_keys | key    | key_len | ref   | rows | Extra       |
+----+-------------+-------+------+---------------+--------+---------+-------+------+-------------+
|  1 | SIMPLE      | t0    | ALL  | NULL          | NULL   | NULL    | NULL  | 1000 | Using where |
|  1 | SIMPLE      | t1    | ref  | idx_c0        | idx_c0 | 5       | t0.c0 |   10 | NULL        |
+----+-------------+-------+------+---------------+--------+---------+-------+------+-------------+`

// TextSamples builds one text-format plan per dialect whose converter has
// a text/table path: the SQL-shaped engines explain a mid-size TPC-H
// query over the seeded benchmark data, Neo4j explains a WDBench pattern,
// and the MySQL tabular format comes from the pinned sample above.
func TextSamples(seed int64) ([]TextSample, error) {
	samples := []TextSample{{Name: "mysql-table", Dialect: "mysql", Raw: mysqlTableSample}}
	q := TPCHQueries()[4]
	for _, s := range []struct {
		name, engine string
		format       explain.Format
	}{
		{"postgresql", "postgresql", explain.FormatText},
		{"mysql-tree", "mysql", explain.FormatText},
		{"tidb", "tidb", explain.FormatTable},
		{"sqlite", "sqlite", explain.FormatText},
		{"sparksql", "sparksql", explain.FormatText},
		{"sqlserver", "sqlserver", explain.FormatText},
		{"influxdb", "influxdb", explain.FormatText},
	} {
		e, err := dbms.New(s.engine)
		if err != nil {
			return nil, err
		}
		if err := LoadTPCH(e, seed, DefaultSizes()); err != nil {
			return nil, fmt.Errorf("bench: text sample %s: %w", s.name, err)
		}
		raw, err := e.Explain(q, s.format)
		if err != nil {
			return nil, fmt.Errorf("bench: text sample %s: %w", s.name, err)
		}
		samples = append(samples, TextSample{Name: s.name, Dialect: s.engine, Raw: raw})
	}
	neo, err := dbms.New("neo4j")
	if err != nil {
		return nil, err
	}
	if err := LoadWDBench(neo, seed, 120, 300); err != nil {
		return nil, err
	}
	raw, err := neo.Explain(WDBenchQueries(seed, 3)[2], explain.FormatText)
	if err != nil {
		return nil, fmt.Errorf("bench: text sample neo4j: %w", err)
	}
	samples = append(samples, TextSample{Name: "neo4j", Dialect: "neo4j", Raw: raw})
	return samples, nil
}
