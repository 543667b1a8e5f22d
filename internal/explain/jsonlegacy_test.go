package explain

import (
	"encoding/json"
	"fmt"
)

// LegacyJSON is the encoding/json path the five JSON serializers used
// before marshalJSON, kept as the reference the differential tests
// compare against: it builds the same document and serializes it with
// json.MarshalIndent, wrapping errors as the public serializers do.
func LegacyJSON(p *Plan) (string, error) {
	var doc any
	var name string
	switch p.Dialect {
	case "postgresql":
		doc, name = postgresJSONDoc(p), "postgres"
	case "mysql":
		doc, name = mysqlJSONDoc(p), "mysql"
	case "mongodb":
		doc, name = mongoJSONDoc(p), "mongo"
	case "neo4j":
		doc, name = neo4jJSONDoc(p), "neo4j"
	case "tidb":
		var arr []tidbJSONNode
		if p.Root != nil {
			arr = append(arr, tidbJSON(p.Root))
		}
		doc, name = arr, "tidb"
	default:
		return "", fmt.Errorf("explain: dialect %q has no JSON format", p.Dialect)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", fmt.Errorf("explain: %s json: %w", name, err)
	}
	return string(data), nil
}
