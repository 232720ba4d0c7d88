package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseLineRecordsGOMAXPROCS(t *testing.T) {
	e, procs, ok := parseLine("BenchmarkQuantForward-2   	     146	   7306092 ns/op	   23680 B/op	     287 allocs/op")
	if !ok || e.Name != "BenchmarkQuantForward" || procs != 2 || e.NsPerOp != 7306092 || *e.AllocsPerOp != 287 {
		t.Fatalf("parsed %+v procs %d ok %v", e, procs, ok)
	}
	if _, procs, ok := parseLine("BenchmarkX 10 100 ns/op"); !ok || procs != 1 {
		t.Fatalf("no suffix: procs %d ok %v, want 1 true", procs, ok)
	}
}

// TestCheckValidatesHost writes reports with a good, a missing and a
// malformed host object and checks what -check accepts.
func TestCheckValidatesHost(t *testing.T) {
	dir := t.TempDir()
	entry := `{"benchmarks": [{"name": "BenchmarkX", "iterations": 1, "ns_per_op": 5}]`
	cases := []struct {
		host string
		ok   bool
	}{
		{``, true},
		{`, "host": {"nproc": 2, "gomaxprocs": 2, "goamd64": "v1", "cpu": "Xeon", "commit": "c028fa4"}`, true},
		{`, "host": {"nproc": 2, "gomaxprocs": 2, "goamd64": "", "cpu": "Xeon", "commit": "c028fa4-dirty"}`, true},
		{`, "host": {"nproc": 0, "gomaxprocs": 2, "goamd64": "v1", "cpu": "Xeon", "commit": "c028fa4"}`, false},
		{`, "host": {"nproc": 2, "gomaxprocs": 2, "goamd64": "v9", "cpu": "Xeon", "commit": "c028fa4"}`, false},
		{`, "host": {"nproc": 2, "gomaxprocs": 2, "goamd64": "v3", "cpu": " ", "commit": "c028fa4"}`, false},
		{`, "host": {"nproc": 2, "gomaxprocs": 2, "goamd64": "v3", "cpu": "Xeon", "commit": "HEAD"}`, false},
		{`, "host": {"nproc": 2, "gomaxprocs": 2, "goamd64": "v3", "cpu": "Xeon", "commit": "c028fa4", "ram": 8}`, false},
	}
	for i, c := range cases {
		path := filepath.Join(dir, "BENCH_t.json")
		if err := os.WriteFile(path, []byte(entry+c.host+"}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		err := runCheck([]string{path})
		if (err == nil) != c.ok {
			t.Errorf("case %d (%s): check error %v, want ok=%v", i, strings.TrimSpace(c.host), err, c.ok)
		}
	}
}
