package dnsmsg

import (
	"errors"
	"testing"
)

type plainHandler struct{ err error }

func (h plainHandler) HandleWire(query []byte) ([]byte, error) {
	if h.err != nil {
		return nil, h.err
	}
	return append([]byte("re:"), query...), nil
}

type appendingHandler struct{ plainHandler }

func (appendingHandler) AppendHandleWire(dst, query []byte) ([]byte, error) {
	return append(append(dst, "app:"...), query...), nil
}

func TestAsWireHandler(t *testing.T) {
	// A handler with the append contract is used as it is.
	if wh := AsWireHandler(appendingHandler{}); wh != WireHandler(appendingHandler{}) {
		t.Errorf("AsWireHandler wrapped a WireHandler: %T", wh)
	}
	// A plain one is adapted: its response is copied in after dst.
	wh := AsWireHandler(plainHandler{})
	got, err := wh.AppendHandleWire([]byte("dst|"), []byte("q"))
	if err != nil || string(got) != "dst|re:q" {
		t.Errorf("adapted AppendHandleWire = %q, %v", got, err)
	}
	// Its error comes through with dst untouched.
	boom := errors.New("boom")
	got, err = AsWireHandler(plainHandler{err: boom}).AppendHandleWire([]byte("dst|"), []byte("q"))
	if !errors.Is(err, boom) || string(got) != "dst|" {
		t.Errorf("adapted error path = %q, %v", got, err)
	}
}
