package ibr

import (
	"errors"
	"strings"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error, "" for valid
	}{
		{"zero value", Config{}, "Threads"},
		{"full valid", Config{Scheme: "ebr", Threads: 4, EpochFreq: 10, EmptyFreq: 5}, ""},
		{"unknown scheme", Config{Scheme: "lru"}, "unknown scheme"},
		{"negative threads", Config{Threads: -1}, "Threads"},
		{"negative freq", Config{Threads: 1, EpochFreq: -1}, "EpochFreq"},
		{"negative buckets", Config{Threads: 1, Buckets: -2}, "Buckets"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestConfigValidateListsSchemes: the unknown-scheme error names the valid
// choices so a typo in a flag is self-correcting.
func TestConfigValidateListsSchemes(t *testing.T) {
	err := Config{Scheme: "nope"}.Validate()
	if err == nil {
		t.Fatal("expected an error")
	}
	for _, s := range []string{"ebr", "tagibr", "2geibr"} {
		if !strings.Contains(err.Error(), s) {
			t.Fatalf("error %q does not list scheme %q", err, s)
		}
	}
}

func TestNewMapValidates(t *testing.T) {
	if _, err := NewMap("hashmap", Config{Scheme: "bogus", Threads: 2}); err == nil {
		t.Fatal("NewMap accepted an unknown scheme")
	}
	// Threads has no default: a missing count is an error, not a panic in
	// the constructor.
	if _, err := NewMap("hashmap", Config{Scheme: "tagibr"}); err == nil || !strings.Contains(err.Error(), "Threads") {
		t.Fatalf("NewMap without Threads = %v, want a Threads error", err)
	}
}

// TestErrorSentinelsDistinct: the exported sentinels are pairwise distinct
// under errors.Is, so callers can branch on exactly the failure they mean.
func TestErrorSentinelsDistinct(t *testing.T) {
	sentinels := []error{ErrBusy, ErrShedding, ErrClosed, ErrPoolExhausted}
	for i, a := range sentinels {
		if !errors.Is(a, a) {
			t.Fatalf("sentinel %d not errors.Is itself", i)
		}
		for j, b := range sentinels {
			if i != j && errors.Is(a, b) {
				t.Fatalf("sentinels %d and %d alias each other", i, j)
			}
		}
	}
}
