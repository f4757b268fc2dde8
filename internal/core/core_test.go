package core

import (
	"testing"
)

func TestNewInventorServiceValidation(t *testing.T) {
	if _, err := NewInventorService(Announcement{}); err == nil {
		t.Error("empty announcement accepted")
	}
	if _, err := NewInventorService(Announcement{InventorID: "i"}); err == nil {
		t.Error("announcement without game accepted")
	}
}
