package core

import (
	"errors"
	"testing"
)

func TestPipelineValidation(t *testing.T) {
	if _, err := NewPipeline(nil, nil); !errors.Is(err, ErrNoClassifier) {
		t.Errorf("NewPipeline(nil) = %v, want ErrNoClassifier", err)
	}
}
