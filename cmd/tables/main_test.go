package main

import (
	"strings"
	"testing"

	"eel/internal/core"
)

// TestCheckFlags: flag values that would be silently reinterpreted are
// rejected with a message naming the flag; the defaults and documented
// values pass.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		engine       string
		insts        uint64
		tableWorkers int
		want         core.Engine
		wantErr      string // prefix of the error; "" for none
	}{
		{"fast", 600_000, 0, core.EngineFast, ""},
		{"optimal", 1, 4, core.EngineOptimal, ""},
		{"reference", 600_000, 0, 0, "-engine: "},
		{"bogus", 600_000, 0, 0, "-engine: "},
		{"fast", 0, 0, 0, "-insts 0"},
		{"fast", 600_000, -1, 0, "-tableworkers -1"},
	} {
		got, err := checkFlags(tc.engine, tc.insts, tc.tableWorkers)
		if tc.wantErr == "" {
			if err != nil || got != tc.want {
				t.Errorf("checkFlags(%q, %d, %d) = %v, %v; want %v", tc.engine, tc.insts, tc.tableWorkers, got, err, tc.want)
			}
			continue
		}
		if err == nil || !strings.HasPrefix(err.Error(), tc.wantErr) {
			t.Errorf("checkFlags(%q, %d, %d): error %v, want one starting %q", tc.engine, tc.insts, tc.tableWorkers, err, tc.wantErr)
		}
	}
}
