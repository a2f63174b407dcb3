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
		engine   string
		genInsts uint64
		want     core.Engine
		wantErr  string // prefix of the error; "" for none
	}{
		{"fast", 1 << 13, core.EngineFast, ""},
		{"optimal", 1, core.EngineOptimal, ""},
		{"reference", 1 << 13, 0, "-engine: "},
		{"bogus", 1 << 13, 0, "-engine: "},
		{"fast", 0, 0, "-gen-dyninsts 0"},
	} {
		got, err := checkFlags(tc.engine, tc.genInsts)
		if tc.wantErr == "" {
			if err != nil || got != tc.want {
				t.Errorf("checkFlags(%q, %d) = %v, %v; want %v", tc.engine, tc.genInsts, got, err, tc.want)
			}
			continue
		}
		if err == nil || !strings.HasPrefix(err.Error(), tc.wantErr) {
			t.Errorf("checkFlags(%q, %d): error %v, want one starting %q", tc.engine, tc.genInsts, err, tc.wantErr)
		}
	}
}
