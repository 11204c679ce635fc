package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"twl"
	"twl/internal/cache"
)

// The job spec once carried a "packed" storage-width flag. These tests pin
// how the field is treated now that the device has a single layout.

// TestSubmitRejectsPackedField: a new submission still sending "packed" is a
// 400 — the decoder disallows unknown fields, so a client relying on the
// flag learns it is gone instead of silently getting a different run.
func TestSubmitRejectsPackedField(t *testing.T) {
	srv := newTestServer(t, t.TempDir(), 1)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := `{"schemes":["NOWL"],"attacks":["repeat"],"pages":256,"mean_endurance":3000,"packed":true}`
	code, out := postJob(t, ts, body)
	if code != http.StatusBadRequest {
		t.Fatalf("submit with packed: HTTP %d, want 400 (%v)", code, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "packed") {
		t.Fatalf("error %q does not name the packed field", msg)
	}
}

// TestPersistedPackedJobLoads: a job file persisted before the field went
// away — spec with "packed": true, cells keyed under the v1 material —
// loads on restart and runs to the same results as a direct run.
func TestPersistedPackedJobLoads(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	id := jobID(1, spec)
	cells := buildCells(spec)
	for _, c := range cells {
		c.Key = cache.Key("twlcell/v1|" + c.name() + "|packed=true")
	}
	b, err := json.Marshal(jobFile{ID: id, Spec: spec, Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	raw["spec"].(map[string]any)["packed"] = true
	if b, err = json.MarshalIndent(raw, "", "  "); err != nil {
		t.Fatal(err)
	}
	jobsDir := filepath.Join(dir, "jobs")
	if err := os.MkdirAll(jobsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobsDir, id+".json"), b, 0o644); err != nil {
		t.Fatal(err)
	}

	srv := newTestServer(t, dir, 2)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	st := waitJob(t, ts, id)
	if st.Status != "done" {
		t.Fatalf("persisted job finished %q: %+v", st.Status, st.Counts)
	}
	for _, c := range st.Cells {
		_, name := (&cell{Source: c.Source}).sourceKind()
		mode, err := twl.ParseAttackMode(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twl.RunAttackCell(spec.system(c.Seed), c.Scheme, mode, twl.LifetimeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Result.toLifetime(); got != want {
			t.Errorf("%s/%s: service %+v, direct %+v", c.Scheme, c.Source, got, want)
		}
	}
}
