package other

import (
	"testing"

	"fixture/internal/lib"
)

func TestOther(t *testing.T) {
	if lib.OtherTestOnly() != 2 {
		t.Fatal("fixture")
	}
}
