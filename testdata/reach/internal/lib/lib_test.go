package lib

import "testing"

func TestOwn(t *testing.T) {
	if OwnTestOnly() != 1 || Used == nil {
		t.Fatal("fixture")
	}
}
