package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"dispersion/server"
)

// FuzzJobRequest posts arbitrary bodies to POST /v1/jobs on a closed
// manager. The handler decodes the body, and SubmitAs runs Validate,
// graphspec.Parse, Spec.Cost and the deadline check before it checks for
// closing, so every decoder and check a submission reaches runs while
// no job ever does: a valid request answers 503. The handler must not
// panic and must answer 400, 413 or 503. For a request it answered 503,
// the decoded JobRequest must encode, decode and encode again to the
// same bytes.
func FuzzJobRequest(f *testing.F) {
	m, err := server.NewManager(server.ManagerOptions{})
	if err != nil {
		f.Fatal(err)
	}
	m.Close()
	h := server.New(m)
	for _, seed := range []string{
		`{"process":"parallel","spec":"torus:32x32","trials":10000,"seed":1,"experiment":7,"options":{"lazy":true}}`,
		`{"process":"sequential","spec":"cycle:100000","trials":1}`,
		`{"process":"capacity","spec":"complete:4","trials":2,"options":{"capacities":[1,2,1,3]}}`,
		`{"process":"sequential","spec":"complete:8","trials":1,"summary_only":true,"priority":3,"deadline_ms":50,"first_trial":9}`,
		`{"process":"sequential-geom","spec":"path:6","trials":1,"options":{"settle_param":0.25,"max_steps":100,"batch":8,"particles":3}}`,
		`{"process":"sequential","spec":"complete:8","trials":1,"seed":18446744073709551615,"options":{"capacities":[]}}`,
		`{"process":"sequential","spec":"complete:8","trials":1} trailing`,
		`{"process":"nope","spec":"complete:8","trials":1}`,
		`{"process":"sequential","spec":"grid:40000x40000","trials":1}`,
		`{"process":"sequential","spec":"complete:8","trials":1,"deadline_ms":-1}`,
		`{"process":"sequential","spec":"complete:8","trials":1,"bogus":1}`,
		`{"process":"sequential","spec":"complete:8","trials":1,"options":{"settle_param":1e400}}`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		case http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var req server.JobRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("answered 503 to a body that does not decode: %v", err)
		}
		first, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not encode: %v", err)
		}
		var again server.JobRequest
		if err := json.Unmarshal(first, &again); err != nil {
			t.Fatalf("encoded request does not decode: %v\n%s", err, first)
		}
		second, err := json.Marshal(again)
		if err != nil || !bytes.Equal(first, second) {
			t.Fatalf("request changed across a round trip (%v):\n%s\n%s", err, first, second)
		}
	})
}
