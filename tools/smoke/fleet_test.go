package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// snapshotServer serves /v1/snapshot/{p} as "partition p", except that
// partition odd is answered with odd bytes and a status of code.
func snapshotServer(t *testing.T, odd, code int) *node {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var p int
		if _, err := fmt.Sscanf(r.URL.Path, "/v1/snapshot/%d", &p); err != nil {
			http.NotFound(w, r)
			return
		}
		if p == odd {
			w.WriteHeader(code)
			fmt.Fprintf(w, "partition %d, diverged", p)
			return
		}
		fmt.Fprintf(w, "partition %d", p)
	}))
	t.Cleanup(srv.Close)
	return &node{base: srv.URL}
}

func TestOwnersAgree(t *testing.T) {
	for _, tc := range []struct {
		name    string
		odd     int // the partition the last owner answers differently
		code    int
		wantErr string
	}{
		{"identical", -1, http.StatusOK, ""},
		{"diverged", 2, http.StatusOK, "partition 2: node 2's /v1/snapshot/2 differs from node 0's"},
		{"non-200", 1, http.StatusServiceUnavailable, "partition 1: node 2: GET"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := &fleet{hc: http.DefaultClient}
			a, b, c := snapshotServer(t, -1, 0), snapshotServer(t, -1, 0), snapshotServer(t, tc.odd, tc.code)
			a.idx, b.idx, c.idx = 0, 1, 2
			// Each partition has two owners; c shares partitions 1 and 2.
			owners := [][]*node{{a, b}, {b, c}, {a, c}, {a, b}}
			err := f.ownersAgree(owners)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("ownersAgree: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("ownersAgree = %v, want an error containing %q", err, tc.wantErr)
			}
		})
	}
}
