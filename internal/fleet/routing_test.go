package fleet

import (
	"encoding/json"
	"strings"
	"testing"
)

// parentSubmitKey and parentOptimizeKey are the routing keys as they stood
// before the canonical scanner: json.Unmarshal on every body.
func parentSubmitKey(body []byte) string {
	var req struct {
		Tenant string `json:"tenant"`
	}
	if json.Unmarshal(body, &req) != nil {
		return ""
	}
	if req.Tenant == "" {
		return "t/default"
	}
	return "t/" + req.Tenant
}

func parentOptimizeKey(body []byte) string {
	var req struct {
		Query     string   `json:"query"`
		Relations []string `json:"relations"`
	}
	if json.Unmarshal(body, &req) != nil {
		return ""
	}
	if req.Query != "" {
		return "q/" + req.Query
	}
	if len(req.Relations) > 0 {
		return "q/" + strings.Join(req.Relations, ",")
	}
	return ""
}

// checkRoutingKeys holds submitKey and optimizeKey to json.Unmarshal's
// keys on one body.
func checkRoutingKeys(t *testing.T, body []byte) {
	t.Helper()
	if got, want := submitKey(body), parentSubmitKey(body); got != want {
		t.Fatalf("body %q: submitKey %q, json.Unmarshal's %q", body, got, want)
	}
	if got, want := optimizeKey(body), parentOptimizeKey(body); got != want {
		t.Fatalf("body %q: optimizeKey %q, json.Unmarshal's %q", body, got, want)
	}
}

// routingSeeds are submit and optimize bodies in and out of the canonical
// form, with the shapes json.Unmarshal forgives and the strict decoder
// does not: unknown and differently-cased keys, repeats, escapes.
var routingSeeds = []string{
	`{"tenant":"etl","query":"Q12","policy":"wait"}`,
	`{"query":"Q12"}`,
	`{"query":"Q3","mode":"joint"}`,
	`{"relations":["lineitem","orders"]}`,
	`{"query":"Q12","relations":["nation"]}`,
	`{"query":"Q12","containers":10}`,
	`{}`,
	` { "tenant" : "" } `,
	`{"Tenant":"etl"}`,
	`{"TENANT":"etl","tenant":"bi"}`,
	`{"tenant":"etl","tenant":"bi"}`,
	`{"tenant":"etl"}`,
	`{"tenant":null}`,
	`{"tenant":7}`,
	`{"tenant":"etl"}x`,
	`{"mode":"joint"}`,
	`{"query":""}`,
	"{\"tenant\":\"\xff\"}",
	`[]`,
	``,
}

func TestRoutingKeysMatchParent(t *testing.T) {
	for _, s := range routingSeeds {
		checkRoutingKeys(t, []byte(s))
	}
}

func FuzzRoutingKeys(f *testing.F) {
	for _, s := range routingSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkRoutingKeys)
}
