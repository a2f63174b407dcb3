package main

import (
	"strings"
	"testing"
)

// TestValidateSizes: every size flag that would be silently remapped or
// is meaningless is rejected with a message naming the flag; defaults
// and the documented zero values pass.
func TestValidateSizes(t *testing.T) {
	defaults := func() map[string]int {
		return map[string]int{"inflight": 8, "queue": 64, "editors": 32,
			"workers": 0, "cache": 0, "tenant-quota": 0, "spill-max": 0, "flight": 0}
	}
	for _, tc := range []struct {
		flag    string
		value   int
		wantErr bool
	}{
		{"inflight", 1, false}, {"inflight", 0, true}, {"inflight", -3, true},
		{"queue", 1, false}, {"queue", 0, true},
		{"editors", 1, false}, {"editors", 0, true},
		{"workers", 4, false}, {"workers", -1, true},
		{"cache", 100, false}, {"cache", -1, true},
		{"tenant-quota", 2, false}, {"tenant-quota", -1, true},
		{"spill-max", 1 << 20, false}, {"spill-max", -1, true},
		{"flight", 256, false}, {"flight", -1, true},
	} {
		v := defaults()
		v[tc.flag] = tc.value
		err := validateSizes(v)
		if !tc.wantErr {
			if err != nil {
				t.Errorf("-%s %d: unexpected error %v", tc.flag, tc.value, err)
			}
			continue
		}
		if err == nil || !strings.HasPrefix(err.Error(), "-"+tc.flag+" ") {
			t.Errorf("-%s %d: error %v, want one naming the flag", tc.flag, tc.value, err)
		}
	}
	if err := validateSizes(defaults()); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
}
