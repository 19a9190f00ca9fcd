package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestList pins `wfbench -list` — the experiment index followed by the
// scenario registry — against its golden.
func TestList(t *testing.T) {
	want, err := os.ReadFile("testdata/list.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("-list exited %d, stderr %q", code, stderr.String())
	}
	if stdout.String() != string(want) {
		t.Errorf("-list output differs from testdata/list.golden:\n%s", stdout.String())
	}
}

// TestUnknownWorkload pins the two ways a -workload name can be wrong:
// both exit 2 and print the registry, but a family nobody registered
// is named as such, and a typo inside a known family names the family.
func TestUnknownWorkload(t *testing.T) {
	for _, tc := range []struct{ name, want string }{
		{"bogus:x", `unknown workload family "bogus" (families: map, cache, txn, queue, log, service)`},
		{"map:bogus", `unknown map workload "map:bogus"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-workload", tc.name}, &stdout, &stderr); code != 2 {
			t.Errorf("-workload %s exited %d, want 2", tc.name, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("-workload %s wrote to stdout: %q", tc.name, stdout.String())
		}
		msg := stderr.String()
		if !strings.Contains(msg, tc.want) {
			t.Errorf("-workload %s: stderr %q does not say %q", tc.name, msg, tc.want)
		}
		// The registry follows the diagnosis.
		for _, name := range []string{"map:read", "service:slowclient"} {
			if !strings.Contains(msg, "\n"+name+" ") {
				t.Errorf("-workload %s: stderr does not list %s", tc.name, name)
			}
		}
	}
}
