package main

import (
	"flag"
	"strings"
	"testing"
)

// Two valid party IDs (hex Ed25519 public keys) for the key-list flags.
const (
	keyA = "1111111111111111111111111111111111111111111111111111111111111111"
	keyB = "2222222222222222222222222222222222222222222222222222222222222222"
)

// verifierCheck runs the verifier's command line through everything that
// refuses it before node.Start touches a disk or a port: the flag parse
// (with its one CLI-only refusal) and node.Config.Validate.
func verifierCheck(args ...string) error {
	_, cfg, err := parseVerifier(args)
	if err != nil {
		return err
	}
	return cfg.Validate()
}

// Every refusal names the flag it refuses, one row per refusal.
func TestVerifierRefusals(t *testing.T) {
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-fanout", []string{"-fanout", "0"}},
		{"-rumor-ttl", []string{"-rumor-ttl", "0"}},
		{"-peers requires -persist", []string{"-peers", "127.0.0.1:1"}},
		{"-sync-interval", []string{"-persist", "d", "-peers", "127.0.0.1:1", "-sync-interval", "0"}},
		{"-sync-interval", []string{"-persist", "d", "-peers", "127.0.0.1:1", "-sync-interval", "-1s"}},
		{"-sync-timeout", []string{"-persist", "d", "-peers", "127.0.0.1:1", "-sync-timeout", "0"}},
		{"-cache-shards", []string{"-cache-shards", "0"}},
		{"-cache-shards", []string{"-cache-shards", "12"}},
		{"-cache-shards", []string{"-cache-size", "8", "-cache-shards", "16"}},
		{"-sync-every", []string{"-sync-every", "0"}},
		{"-cert-threshold requires -panel-keys", []string{"-cert-threshold", "2"}},
		{"-peer-keys requires -persist", []string{"-peer-keys", keyA}},
		{"-key requires -persist", []string{"-key", "k"}},
		{"-admission-interactive", []string{"-admission-interactive", "-1"}},
		{"-admission-batch", []string{"-admission-batch", "-1"}},
	} {
		err := verifierCheck(tc.args...)
		if err == nil {
			t.Errorf("%v: accepted, want a refusal naming %s", tc.args, tc.flag)
			continue
		}
		if !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%v: refusal %q does not name %s", tc.args, err, tc.flag)
		}
	}
}

// The defaults and every verifier configuration the CI smokes and the
// benchmark launch are accepted.
func TestVerifierAccepts(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"-id", "old", "-listen", "127.0.0.1:7108", "-persist", "store-old"},
		{"-id", "verify-a", "-listen", "127.0.0.1:7101", "-persist", "store-a", "-key", "key-a", "-peer-keys", keyB,
			"-peers", "127.0.0.1:7102,127.0.0.1:7104", "-sync-interval", "1s", "-admin", "127.0.0.1:9191"},
		{"-id", "verify-b", "-listen", "127.0.0.1:7102", "-persist", "store-b", "-key", "key-b", "-peer-keys", keyA},
		{"-id", "liar", "-listen", "127.0.0.1:7103", "-byzantine"},
		{"-id", "liar-fed", "-listen", "127.0.0.1:7105", "-persist", "store-z", "-key", "key-z", "-byzantine"},
		{"-id", "verify-c", "-listen", "127.0.0.1:7107", "-persist", "store-c", "-key", "key-c",
			"-peer-keys", keyA + "," + keyB, "-peers", "127.0.0.1:7105,127.0.0.1:7106", "-sync-interval", "300ms",
			"-audit-rate", "1", "-quarantine-threshold", "0.3", "-admin", "127.0.0.1:9192"},
		{"-id", "gossip-1", "-listen", "127.0.0.1:7121", "-persist", "store-g1",
			"-peers", "127.0.0.1:7122,127.0.0.1:7123,127.0.0.1:7124",
			"-sync-interval", "500ms", "-sync-jitter", "0", "-sync-backoff-max", "8s", "-admin", "127.0.0.1:9221"},
		{"-id", "stream-corp", "-listen", "127.0.0.1:7301", "-admin", "127.0.0.1:9301"},
		{"-id", "shed-corp", "-listen", "127.0.0.1:7302", "-admission-batch", "50", "-admin", "127.0.0.1:9302"},
		{"-id", "archive", "-listen", "127.0.0.1:7204", "-persist", "store-ar", "-panel-keys", keyA + "," + keyB,
			"-peers", "127.0.0.1:7205", "-sync-interval", "1h"},
		{"-id", "bench-hot-verify", "-listen", "127.0.0.1:0", "-persist", "d", "-cache-size", "4096", "-admin", "127.0.0.1:0"},
		{"-id", "panel-a", "-listen", "127.0.0.1:0", "-persist", "d", "-cache-size", "4096", "-admin", "127.0.0.1:0",
			"-key", "d/bench.key", "-peer-keys", keyB, "-panel-keys", keyA + "," + keyB,
			"-peers", "127.0.0.1:1", "-sync-interval", "250ms", "-sync-jitter", "0"},
	} {
		if err := verifierCheck(args...); err != nil {
			t.Errorf("%v: refused: %v", args, err)
		}
	}
}

// The list flags land split, and -sync-jitter 0 stays "off" in the
// Config (node.Start turns it into the engine's spelling).
func TestVerifierLists(t *testing.T) {
	_, cfg, err := parseVerifier([]string{"-persist", "d", "-peers", " a, b,", "-peer-keys", keyA + ",", "-sync-jitter", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Peers) != 2 || cfg.Peers[0] != "a" || cfg.Peers[1] != "b" {
		t.Fatalf("peers = %q, want [a b]", cfg.Peers)
	}
	if len(cfg.PeerKeys) != 1 || string(cfg.PeerKeys[0]) != keyA || cfg.PanelKeys != nil {
		t.Fatalf("peer keys %q, panel keys %q", cfg.PeerKeys, cfg.PanelKeys)
	}
	if cfg.SyncJitter != 0 {
		t.Fatalf("sync jitter = %g, want 0", cfg.SyncJitter)
	}
}

// The verifier's flags, names and defaults, as they stood before the
// assembly moved to internal/node: none may be renamed, removed or
// re-defaulted without this table saying so.
func TestVerifierFlagsPinned(t *testing.T) {
	want := map[string]string{
		"admin":                 "",
		"admission-batch":       "0",
		"admission-interactive": "0",
		"audit-rate":            "0",
		"byzantine":             "false",
		"cache-shards":          "16",
		"cache-size":            "1024",
		"cert-threshold":        "0",
		"fanout":                "2",
		"id":                    "verifier-1",
		"key":                   "",
		"listen":                "127.0.0.1:7101",
		"panel-keys":            "",
		"peer-keys":             "",
		"peers":                 "",
		"persist":               "",
		"probation":             "30m0s",
		"quarantine-threshold":  "0.25",
		"rumor-ttl":             "3",
		"sync-backoff-max":      "5m0s",
		"sync-every":            "64",
		"sync-interval":         "30s",
		"sync-jitter":           "0.2",
		"sync-timeout":          "1m0s",
		"workers":               "0",
	}
	fs, _, err := parseVerifier(nil)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if len(got) != len(want) {
		t.Errorf("%d flags, want %d", len(got), len(want))
	}
	for name, def := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("-%s is gone", name)
		} else if g != def {
			t.Errorf("-%s defaults to %q, want %q", name, g, def)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("-%s is new", name)
		}
	}
}
