package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"spantree/internal/gen"
)

// largeRandSpec has the shape of the dense random graph the repository
// benchmark's serving workload registers as "rand": n = 2^19, m = 8n.
var largeRandSpec = gen.Spec{Kind: "random", N: 1 << 19, M: 8 << 19, Seed: 7}

// TestServeLargeRandomSingleTeam registers the large random graph under
// the default Config and checks that GET /v1/graphs reports it served by
// one team.
func TestServeLargeRandomSingleTeam(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.Register("rand", largeRandSpec); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list GraphListResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Graphs) != 1 || list.Graphs[0].Shards != 1 {
		t.Fatalf("GET /v1/graphs = %+v, want one graph with shards 1", list.Graphs)
	}
}

// BenchmarkServeSpanTree times one summary request (no parent array) for
// the large random graph through the in-process handler, registered
// under the default Config: decode, admission, the pooled run and the
// encode.
func BenchmarkServeSpanTree(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	if err := s.Register("rand", largeRandSpec); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, _ := json.Marshal(SpanTreeRequest{Graph: "rand", Seed: uint64(i)})
		resp, err := http.Post(ts.URL+"/v1/spantree", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
	}
}
