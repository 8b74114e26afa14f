package fleet_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"raqo/internal/cost"
	"raqo/internal/feedback"
	"raqo/internal/fleet"
	"raqo/internal/plan"
)

// FuzzModelWire feeds arbitrary bytes, as a peer's GET /v1/fleet/model
// answer, through the prober's decoder: json.Unmarshal into a ModelWire,
// then Decode. Neither may panic, and a set that decodes re-encodes
// through EncodeModelInfo to the entries it was decoded from — for each
// algorithm, in plan.Algos order, the last wire entry naming it.
func FuzzModelWire(f *testing.F) {
	seed, err := fleet.EncodeModelInfo("n1:1", &feedback.ModelInfo{Version: 2, Models: cost.PaperModels(), TrainedOn: 9})
	if err != nil {
		f.Fatal(err)
	}
	b, err := json.Marshal(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add([]byte(`{"version":3,"models":[{"algo":"BHJ","name":"x","coef":[1,2,3,4,5,6,7],"intercept":-0.5,"unfloored":true},{"algo":"BHJ","name":"y","coef":[0,0,0,0,0,0,0]}]}`))
	f.Add([]byte(`{"version":18446744073709551615,"models":[{"algo":"SMJ","name":"z","coef":[1e308,-1e308,0,0,0,0,1]}]}`))
	f.Add([]byte(`{"version":0,"models":[]}`))
	f.Add([]byte(`{"version":1,"models":[{"algo":"NLJ","name":"n","coef":[1]}]}`))
	f.Add([]byte(`[`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var w fleet.ModelWire
		if json.Unmarshal(data, &w) != nil {
			return
		}
		models, err := w.Decode()
		if err != nil {
			return
		}
		var want []fleet.ModelEntry
		for _, a := range plan.Algos {
			for i := len(w.Models) - 1; i >= 0; i-- {
				if w.Models[i].Algo == a.String() {
					want = append(want, w.Models[i])
					break
				}
			}
		}
		got, err := fleet.EncodeModelInfo(w.Origin, &feedback.ModelInfo{Version: w.Version, Models: models, TrainedOn: w.TrainedOn})
		if err != nil {
			t.Fatalf("decoded set does not re-encode: %v", err)
		}
		if got.Version != w.Version || got.TrainedOn != w.TrainedOn || !reflect.DeepEqual(got.Models, want) {
			t.Fatalf("re-encoded %+v, want version %d, trainedOn %d, entries %+v", got, w.Version, w.TrainedOn, want)
		}
	})
}
