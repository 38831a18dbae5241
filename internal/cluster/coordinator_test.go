package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestCoordinatorAggregatesCluster(t *testing.T) {
	c := newTestCluster(t)
	c.start(t, true)
	gamma := c.local.Agent("gamma")

	waitFor(t, "traffic", 10*time.Second, func() bool { return c.sink.got.Load() >= 5 })

	coord := NewCoordinator(c.plan, func(node string) (string, error) {
		return c.local.Agent(node).MetricsAddr(), nil
	})

	st := coord.Status()
	if !st.Healthy || len(st.Nodes) != 3 {
		t.Fatalf("cluster status = %+v", st)
	}
	for _, n := range st.Nodes {
		if !n.Reachable || !n.Healthy {
			t.Fatalf("node %s not healthy: %+v", n.Node, n)
		}
	}

	var expo strings.Builder
	if err := coord.WriteMetrics(&expo); err != nil {
		t.Fatal(err)
	}
	got := expo.String()
	for _, want := range []string{
		`node="alpha"`, `node="beta"`, `node="gamma"`,
		`soleil_node_up{node="beta"} 1`,
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("federated exposition missing %q:\n%.2000s", want, got)
		}
	}
	if n := strings.Count(got, "# TYPE soleil_invocations_total counter"); n != 1 {
		t.Fatalf("metric family declared %d times, want once", n)
	}

	// The HTTP face of the same views.
	bound, shutdown, err := coord.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	resp, err := http.Get("http://" + bound + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var parsed ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&parsed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || parsed.Architecture != "pipeline" {
		t.Fatalf("GET /status = %d %+v", resp.StatusCode, parsed)
	}

	// A dead node degrades the view instead of breaking it.
	gamma.Close()
	st = coord.Status()
	if st.Healthy {
		t.Fatal("cluster still healthy with gamma down")
	}
	var downs int
	for _, n := range st.Nodes {
		if !n.Reachable {
			downs++
		}
	}
	if downs != 1 {
		t.Fatalf("%d unreachable nodes, want 1", downs)
	}
	resp, err = http.Get("http://" + bound + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `soleil_node_up{node="gamma"} 0`) {
		t.Fatalf("federated metrics missing gamma down marker:\n%.1000s", body)
	}
}
