package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunUsage: unknown names, unparsable flags and a pair the scheme
// cannot run exit 2 before soaking anything, with the refusal harness.Run
// and ibrd give for the same pair; -h exits 0; a short soak of a supported
// pair exits 0 with its ok line.
func TestRunUsage(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
		msg  string
	}{
		{[]string{"-bogus"}, 2, "flag provided but not defined"},
		{[]string{"-r", "nope"}, 2, `unknown structure "nope"`},
		{[]string{"-d", "nope"}, 2, `unknown scheme "nope"`},
		{[]string{"-r", "bonsai", "-d", "hp"}, 2, `scheme "hp" cannot run structure "bonsai"`},
		{[]string{"-h"}, 0, "Usage of ibrstress"},
		{[]string{"-r", "hashmap", "-d", "ebr", "-t", "2", "-i", "0.05"}, 0, "ok   hashmap   ebr"},
	} {
		var out bytes.Buffer
		if rc := run(tc.args, &out, &out); rc != tc.want || !strings.Contains(out.String(), tc.msg) {
			t.Errorf("run(%q) = %d, want %d with %q; output:\n%s", tc.args, rc, tc.want, tc.msg, out.String())
		}
	}
}
