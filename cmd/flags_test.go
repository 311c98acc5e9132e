// Package cmd_test pins the option surface of the simulation CLIs: the
// (flag name, default) pairs each binary prints under -h must equal the
// golden list in testdata/flags.golden, captured from the commit before the
// shared internal/sim flag groups replaced the per-CLI declarations. Usage
// wording is free to change; adding, dropping or re-defaulting a flag is
// not (re-capture deliberately with `go test ./cmd -run FlagParity -update`).
package cmd_test

import (
	"errors"
	"flag"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/flags.golden from the current binaries")

var clis = []string{
	"dnsnoise-exp", "dnsnoise-fleet", "dnsnoise-gen",
	"dnsnoise-mine", "dnsnoise-pdns", "dnsnoise-serve",
}

var (
	flagLine = regexp.MustCompile(`^  -(\S+)`)
	// The flag package appends the default last on the usage line, %q for
	// strings and %v otherwise, so a real default never contains a bare
	// space — which keeps prose like "(default when -trace is empty)" out.
	defaultSuffix = regexp.MustCompile(`\(default ("(?:[^"\\]|\\.)*"|\S+)\)$`)
)

// parseDefaults turns one CLI's flag.PrintDefaults output into golden
// lines, "<cli> -<name>=<default>"; a flag printed without a default
// carries its type's zero value. String defaults are unquoted, so a flag
// may move between flag.String and a flag.Value of the same spelling.
func parseDefaults(cli, help string) []string {
	var out []string
	for _, line := range strings.Split(help, "\n") {
		if m := flagLine.FindStringSubmatch(line); m != nil {
			out = append(out, cli+" -"+m[1]+"=")
		} else if m := defaultSuffix.FindStringSubmatch(line); m != nil && len(out) > 0 {
			def := m[1]
			if unq, err := strconv.Unquote(def); err == nil {
				def = unq
			}
			out[len(out)-1] += def
		}
	}
	return out
}

// buildCLIs builds the named commands into a directory of the test's own.
func buildCLIs(t *testing.T, names ...string) string {
	t.Helper()
	bin := t.TempDir()
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, cli := range names {
		args = append(args, "./"+cli)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestSourceMisuseBindsNothing: -trace with -live, or neither, is refused
// from the parsed flags, before telemetry listens. The test holds the port
// it names in -metrics-addr, so a CLI that reached the bind would fail on
// the listen instead and say so.
func TestSourceMisuseBindsNothing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()
	bin := buildCLIs(t, "dnsnoise-mine", "dnsnoise-pdns", "dnsnoise-fleet")
	for _, tc := range []struct {
		cli, want string
		args      []string
	}{
		{"dnsnoise-mine", "mutually exclusive", []string{"-trace", "t.jsonl", "-live"}},
		{"dnsnoise-mine", "missing -trace", nil},
		{"dnsnoise-pdns", "mutually exclusive", []string{"-trace", "t.jsonl", "-live"}},
		{"dnsnoise-pdns", "missing -trace", nil},
		{"dnsnoise-fleet", "mutually exclusive", []string{"-trace", "t.jsonl", "-live"}},
	} {
		args := append([]string{"-metrics-addr", addr}, tc.args...)
		out, err := exec.Command(filepath.Join(bin, tc.cli), args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Errorf("%s %v: err %v, want a non-zero exit\n%s", tc.cli, tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.want) || strings.Contains(string(out), "listen") {
			t.Errorf("%s %v: want only the flag error (%q), got:\n%s", tc.cli, tc.args, tc.want, out)
		}
	}
}

func TestFlagParity(t *testing.T) {
	// The binaries are built out of process, where go test's result cache
	// cannot see their inputs: stat the module's sources, which it does
	// record, so that editing any of them re-runs the test.
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != ".." && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir // .git, the benchmark's build cache
		}
		if err == nil && strings.HasSuffix(path, ".go") {
			_, err = os.Stat(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	bin := buildCLIs(t, clis...)
	got := make(map[string][]string)
	for _, cli := range clis {
		// -h exits non-zero by design; the usage text is what matters.
		help, _ := exec.Command(filepath.Join(bin, cli), "-h").CombinedOutput()
		if got[cli] = parseDefaults(cli, string(help)); len(got[cli]) == 0 {
			t.Fatalf("%s -h printed no flags:\n%s", cli, help)
		}
	}

	golden := filepath.Join("testdata", "flags.golden")
	if *update {
		var all []string
		for _, cli := range clis {
			all = append(all, got[cli]...)
		}
		sort.Strings(all)
		if err := os.WriteFile(golden, []byte(strings.Join(all, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		cli, _, _ := strings.Cut(line, " ")
		if want[cli] == nil {
			want[cli] = make(map[string]bool)
		}
		want[cli][line] = true
	}
	for _, cli := range clis {
		t.Run(cli, func(t *testing.T) {
			for _, line := range got[cli] {
				if !want[cli][line] {
					t.Errorf("added or re-defaulted: %s", line)
				}
				delete(want[cli], line)
			}
			for line := range want[cli] {
				t.Errorf("dropped or re-defaulted: %s", line)
			}
		})
	}
}
