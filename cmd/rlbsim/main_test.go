package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// asMainEnv, when set, makes the test binary run rlbsim's main with the
// arguments after "--" instead of the tests, so a test can observe the real
// exit code and output of a command line.
const asMainEnv = "RLBSIM_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{"rlbsim"}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI re-executes the test binary as rlbsim with args and returns its
// exit code and stderr.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	cmd.Dir = t.TempDir()
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatalf("running rlbsim %v: %v", args, err)
	return 0, ""
}

// TestSingleRunFlagsRejectSeeds checks that flags which describe one run
// exit 2 with a message under -seeds > 1 instead of being dropped silently.
func TestSingleRunFlagsRejectSeeds(t *testing.T) {
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-fingerprint", []string{"-fingerprint"}},
		{"-telemetry", []string{"-telemetry", "x.jsonl"}},
	} {
		t.Run(c.flag, func(t *testing.T) {
			args := append([]string{"-seeds", "2", "-duration", "100us", "-drain", "100us"}, c.args...)
			code, stderr := runCLI(t, args...)
			if code != 2 {
				t.Fatalf("rlbsim %v exited %d, want 2 (stderr %q)", args, code, stderr)
			}
			if !strings.Contains(stderr, c.flag) || !strings.Contains(stderr, "-seeds 1") {
				t.Errorf("stderr %q does not name %s and -seeds 1", stderr, c.flag)
			}
		})
	}
}
