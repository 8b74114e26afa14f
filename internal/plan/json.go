package plan

import (
	"encoding/json"
	"fmt"

	"raqo/internal/catalog"
)

// nodeJSON is the wire form of a plan operator. Statistics are not
// serialized: they are derived from the schema on decode, which guarantees
// a decoded plan is internally consistent with the catalog it is decoded
// against.
type nodeJSON struct {
	Table string    `json:"table,omitempty"`
	Algo  string    `json:"algo,omitempty"`
	Res   *resJSON  `json:"resources,omitempty"`
	Left  *nodeJSON `json:"left,omitempty"`
	Right *nodeJSON `json:"right,omitempty"`
}

type resJSON struct {
	Containers  int     `json:"containers"`
	ContainerGB float64 `json:"containerGB"`
}

// MarshalJSON encodes the plan tree (shape, operator implementations and
// resource annotations).
func (n *Node) MarshalJSON() ([]byte, error) {
	return json.Marshal(n.toJSON())
}

func (n *Node) toJSON() *nodeJSON {
	if n == nil {
		return nil
	}
	out := &nodeJSON{}
	if n.IsScan() {
		out.Table = n.Table
		return out
	}
	out.Algo = n.Algo.String()
	if !n.Res.IsZero() {
		out.Res = &resJSON{Containers: n.Res.Containers, ContainerGB: n.Res.ContainerGB}
	}
	out.Left = n.Left.toJSON()
	out.Right = n.Right.toJSON()
	return out
}

// Decode reconstructs a plan from its JSON form against a schema,
// re-deriving all statistics and re-validating join edges. It is the
// inverse of MarshalJSON.
func Decode(s *catalog.Schema, data []byte) (*Node, error) {
	var wire nodeJSON
	if err := json.Unmarshal(data, &wire); err != nil {
		return nil, fmt.Errorf("plan: decode: %w", err)
	}
	return fromJSON(s, &wire)
}

func fromJSON(s *catalog.Schema, w *nodeJSON) (*Node, error) {
	if w == nil {
		return nil, fmt.Errorf("plan: decode: missing node")
	}
	if w.Table != "" {
		if w.Left != nil || w.Right != nil {
			return nil, fmt.Errorf("plan: decode: scan %q has children", w.Table)
		}
		return NewScan(s, w.Table)
	}
	algo, ok := ParseAlgo(w.Algo)
	if !ok {
		return nil, fmt.Errorf("plan: decode: unknown algorithm %q", w.Algo)
	}
	left, err := fromJSON(s, w.Left)
	if err != nil {
		return nil, err
	}
	right, err := fromJSON(s, w.Right)
	if err != nil {
		return nil, err
	}
	n, err := NewJoin(s, algo, left, right)
	if err != nil {
		return nil, err
	}
	if w.Res != nil {
		n.Res = Resources{Containers: w.Res.Containers, ContainerGB: w.Res.ContainerGB}
	}
	return n, nil
}
