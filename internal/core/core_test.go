package core

import (
	"context"
	"testing"

	"rationality/internal/reputation"
	"rationality/internal/transport"
)

func TestNewAgentValidation(t *testing.T) {
	reg := reputation.NewRegistry()
	inv := transport.DialInProc(transport.HandlerFunc(
		func(ctx context.Context, m transport.Message) (transport.Message, error) {
			return m, nil
		}))
	cases := []AgentConfig{
		{},
		{Name: "a"},
		{Name: "a", Inventor: inv},
		{Name: "a", Inventor: inv, Verifiers: map[string]transport.Client{"v": inv}},
	}
	for i, cfg := range cases {
		if _, err := NewAgent(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	_ = reg
}

func TestNewInventorServiceValidation(t *testing.T) {
	if _, err := NewInventorService(Announcement{}); err == nil {
		t.Error("empty announcement accepted")
	}
	if _, err := NewInventorService(Announcement{InventorID: "i"}); err == nil {
		t.Error("announcement without game accepted")
	}
}
