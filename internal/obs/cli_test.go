package obs

import (
	"flag"
	"log/slog"
	"testing"
)

// TestCLILogLevels checks the one log path the CLI flags build: -v attaches
// the structured logger at debug level unless -log-level says otherwise, and
// -log-format alone logs at info.
func TestCLILogLevels(t *testing.T) {
	for _, tc := range []struct {
		args []string
		min  slog.Level // lowest level emitted
	}{
		{[]string{"-v"}, slog.LevelDebug},
		{[]string{"-v", "-log-level", "info"}, slog.LevelInfo},
		{[]string{"-v", "-log-level", "warn"}, slog.LevelWarn},
		{[]string{"-v", "-log-format", "json"}, slog.LevelDebug},
		{[]string{"-log-format", "text"}, slog.LevelInfo},
	} {
		var c CLI
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		c.Register(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		octx := c.Context()
		if octx == nil || octx.Logger == nil {
			t.Fatalf("%v: no logger attached", tc.args)
		}
		if !octx.LogEnabled(tc.min) {
			t.Errorf("%v: level %v not emitted", tc.args, tc.min)
		}
		if octx.LogEnabled(tc.min - 4) {
			t.Errorf("%v: level %v emitted, want floor %v", tc.args, tc.min-4, tc.min)
		}
	}

	var c CLI
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if octx := c.Context(); octx != nil {
		t.Errorf("no flags: context %+v, want nil", octx)
	}
}
