package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"rowhammer/internal/campaign"
)

// testServer starts a daemon on dir with a real HTTP front end.
func testServer(t *testing.T, dir string, workers int) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{Dir: dir, Workers: workers, CacheEntries: 8, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	return s, hs
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, b)
	}
	return b
}

func waitDone(t *testing.T, s *Server, id string) {
	t.Helper()
	done, ok := s.FleetDone(id)
	if !ok {
		t.Fatalf("fleet %s unknown", id)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Minute):
		t.Fatalf("fleet %s never finished", id)
	}
}

func fleetStatus(t *testing.T, s *Server, id string) FleetStatus {
	t.Helper()
	s.mu.Lock()
	f := s.fleets[id]
	s.mu.Unlock()
	if f == nil {
		t.Fatalf("fleet %s unknown", id)
	}
	return f.status()
}

// TestKillResumeDeterminism is the end-to-end checkpoint/resume
// acceptance test: a daemon killed mid-fleet and restarted on the same
// state directory finishes the fleet with the same digest — and the
// same scrubbed result bytes — as an uninterrupted daemon.
func TestKillResumeDeterminism(t *testing.T) {
	spec := DemoFleet(2) // 4 campaigns, 2 template identities

	// Reference: one daemon life, start to finish.
	sA, hsA := testServer(t, t.TempDir(), 2)
	idA, err := sA.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sA, idA)
	stA := fleetStatus(t, sA, idA)
	bodyA := getBody(t, hsA.URL+"/v1/fleets/"+idA+"/results?scrub=1")
	hsA.Close()
	sA.Close()
	if stA.Failed != 0 || stA.Digest == "" {
		t.Fatalf("reference fleet: failed=%d digest=%q", stA.Failed, stA.Digest)
	}

	// Interrupted: single worker, kill the daemon after the first
	// campaign checkpoints.
	dirB := t.TempDir()
	sB, err := New(Config{Dir: dirB, Workers: 1, CacheEntries: 8, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	idB, err := sB.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Minute)
	for fleetStatus(t, sB, idB).Completed < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first campaign never completed")
		}
		time.Sleep(time.Millisecond)
	}
	sB.Close() // the "kill": cancels the engine, fleet reverts to queued
	interrupted := fleetStatus(t, sB, idB)
	if interrupted.Completed >= interrupted.Campaigns {
		t.Skip("fleet finished before the kill landed; resume path not exercised")
	}
	t.Logf("killed daemon at %d/%d campaigns", interrupted.Completed, interrupted.Campaigns)

	// Second life on the same directory: the fleet must resume, not
	// restart, and converge to the reference digest.
	sB2, hsB2 := testServer(t, dirB, 2)
	defer hsB2.Close()
	defer sB2.Close()
	stResumed := fleetStatus(t, sB2, idB)
	if stResumed.Completed != interrupted.Completed {
		t.Fatalf("resumed daemon loaded %d completed campaigns, checkpoint had %d",
			stResumed.Completed, interrupted.Completed)
	}
	waitDone(t, sB2, idB)
	stB := fleetStatus(t, sB2, idB)
	if stB.Failed != 0 {
		t.Fatalf("resumed fleet failed %d campaigns", stB.Failed)
	}
	if stB.Digest != stA.Digest {
		t.Fatalf("resumed digest %s != uninterrupted digest %s", stB.Digest, stA.Digest)
	}
	if stB.CacheHits != stA.CacheHits {
		t.Fatalf("resumed CacheHits %d != uninterrupted %d", stB.CacheHits, stA.CacheHits)
	}
	bodyB := getBody(t, hsB2.URL+"/v1/fleets/"+idB+"/results?scrub=1")
	if !bytes.Equal(bodyA, bodyB) {
		t.Fatal("scrubbed result bytes differ between interrupted and uninterrupted runs")
	}
}

// TestThirdLifeServesDoneFleet asserts a finished fleet survives yet
// another daemon restart: status, digest and results come back from
// disk with no re-execution.
func TestThirdLifeServesDoneFleet(t *testing.T) {
	dir := t.TempDir()
	s, hs := testServer(t, dir, 2)
	id, err := s.Submit(DemoFleet(1))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, id)
	want := fleetStatus(t, s, id)
	wantBody := getBody(t, hs.URL+"/v1/fleets/"+id+"/results?scrub=1")
	hs.Close()
	s.Close()

	s2, hs2 := testServer(t, dir, 2)
	defer hs2.Close()
	defer s2.Close()
	got := fleetStatus(t, s2, id)
	if got.State != "done" || got.Digest != want.Digest {
		t.Fatalf("reloaded fleet state=%s digest=%s, want done/%s", got.State, got.Digest, want.Digest)
	}
	if !bytes.Equal(wantBody, getBody(t, hs2.URL+"/v1/fleets/"+id+"/results?scrub=1")) {
		t.Fatal("reloaded results differ")
	}
	// A done fleet's stream replays everything and closes.
	lines := bytes.Count(bytes.TrimSpace(getBody(t, hs2.URL+"/v1/fleets/"+id+"/stream")), []byte{'\n'}) + 1
	if lines != got.Campaigns {
		t.Fatalf("stream replayed %d lines, want %d", lines, got.Campaigns)
	}
}

// TestStreamDeliversEveryResultOnce subscribes before the fleet runs
// and asserts the stream yields exactly one line per campaign, with
// replay and live delivery never duplicating or dropping.
func TestStreamDeliversEveryResultOnce(t *testing.T) {
	s, hs := testServer(t, t.TempDir(), 2)
	defer hs.Close()
	defer s.Close()
	id, err := s.Submit(DemoFleet(1))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(hs.URL + "/v1/fleets/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body) // blocks until the fleet closes the stream
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	dec := json.NewDecoder(bytes.NewReader(body))
	for dec.More() {
		var r campaign.Result
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		seen[r.Index]++
	}
	st := fleetStatus(t, s, id)
	if len(seen) != st.Campaigns {
		t.Fatalf("stream covered %d campaigns, want %d", len(seen), st.Campaigns)
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("campaign %d streamed %d times", idx, n)
		}
	}
}

// TestSKUAggregationAcrossFleets submits two fleets and asserts
// /v1/skus folds both into one per-SKU view — the daemon's
// cross-campaign results store.
func TestSKUAggregationAcrossFleets(t *testing.T) {
	s, hs := testServer(t, t.TempDir(), 2)
	defer hs.Close()
	defer s.Close()
	for i := 0; i < 2; i++ {
		id, err := s.Submit(DemoFleet(1))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, id)
	}
	var skus []campaign.SKUStats
	if err := json.Unmarshal(getBody(t, hs.URL+"/v1/skus"), &skus); err != nil {
		t.Fatal(err)
	}
	if len(skus) != 2 {
		t.Fatalf("aggregated %d SKUs, want 2", len(skus))
	}
	for _, sku := range skus {
		if sku.Campaigns != 2 {
			t.Fatalf("SKU %s aggregates %d campaigns across fleets, want 2", sku.SKU, sku.Campaigns)
		}
	}
}

// TestSubmitRejectsBadSpecs exercises validation through the HTTP
// surface: malformed JSON, empty fleets, unknown devices, misaligned
// weight files, requirements outside the one-page weight file and fault
// knobs outside their range must all 400 without leaving state behind.
func TestSubmitRejectsBadSpecs(t *testing.T) {
	s, hs := testServer(t, t.TempDir(), 1)
	defer hs.Close()
	defer s.Close()
	page := `"WeightFile":"` + base64.StdEncoding.EncodeToString(make([]byte, 4096)) + `"`
	withReq := func(req string) string { return `{"Jobs":[{` + page + `,"Reqs":[` + req + `]}]}` }
	bad := []string{
		`{not json`,
		`{}`,
		`{"Jobs":[{"WeightFile":"aGk=","Module":{"Device":"nope"}}]}`,
		`{"Jobs":[{"WeightFile":"aGk=","Online":{"BufferPages":64}}]}`, // 2 bytes: misaligned
		withReq(`{"FilePage":1048576,"Flips":[{"Offset":0,"Bit":0,"Dir":1}]}`),
		withReq(`{"FilePage":-1,"Flips":[{"Offset":0,"Bit":0,"Dir":1}]}`),
		withReq(`{"FilePage":1,"Flips":[{"Offset":0,"Bit":0,"Dir":1}]}`),
		withReq(`{"FilePage":0,"Flips":[{"Offset":99999,"Bit":0,"Dir":1}]}`),
		withReq(`{"FilePage":0,"Flips":[{"Offset":-1,"Bit":0,"Dir":1}]}`),
		withReq(`{"FilePage":0,"Flips":[{"Offset":0,"Bit":40,"Dir":1}]}`),
		withReq(`{"FilePage":0,"Flips":[{"Offset":0,"Bit":-1,"Dir":2}]}`),
		withReq(`{"FilePage":0,"Flips":[{"Offset":0,"Bit":0,"Dir":0}]}`),
		withReq(`{"FilePage":0,"Flips":[{"Offset":0,"Bit":0,"Dir":3}]}`),
		`{"Jobs":[{` + page + `,"Module":{"FlipFailProb":1.5}}]}`,
		`{"Jobs":[{` + page + `,"Module":{"FlipFailProb":-0.5}}]}`,
		`{"Jobs":[{` + page + `,"Module":{"TRRJitter":-0.1}}]}`,
	}
	for _, body := range bad {
		resp, err := http.Post(hs.URL+"/v1/fleets", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %.200q: HTTP %d, want 400", body, resp.StatusCode)
		}
	}
	var fleets []FleetStatus
	if err := json.Unmarshal(getBody(t, hs.URL+"/v1/fleets"), &fleets); err != nil {
		t.Fatal(err)
	}
	if len(fleets) != 0 {
		t.Fatalf("%d fleets exist after rejected submissions, want 0", len(fleets))
	}
	if _, err := New(Config{Dir: ""}); err == nil {
		t.Fatal("New accepted an empty state directory")
	}
}

// TestCloseLeavesNoGoroutines pins daemon teardown: Close on an idle
// and on a busy server must retire the run loop and every engine
// goroutine.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	dir := t.TempDir()
	s, err := New(Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(DemoFleet(1)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the fleet get going
	s.Close()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines outlive Close (baseline %d)", n, baseline)
	}
}
