package dnsmsg

// Handler answers one wire-format DNS query with a freshly allocated
// wire-format response. Implementations must not retain query past the call:
// callers reuse their query buffers. Only the resolver's upstream takes this
// form (through AsWireHandler); the UDP front door takes a WireHandler.
type Handler interface {
	HandleWire(query []byte) ([]byte, error)
}

// WireHandler is the buffer-reusing form of the same contract, shared by
// every hop — the UDP front door serving a handler, the resolver recursing
// to its upstream: the response is appended to dst, a caller-owned scratch
// buffer, and the extended slice returned, so a caller threading one buffer
// through every exchange pays for no response allocation. query is only read
// during the call and must not be retained; on error the returned slice is
// not a response and must not be sent.
type WireHandler interface {
	AppendHandleWire(dst, query []byte) ([]byte, error)
}

// AsWireHandler returns h itself when it also implements the append contract
// (authority.Server), and otherwise adapts HandleWire
// at the price of one copy per response.
func AsWireHandler(h Handler) WireHandler {
	if wh, ok := h.(WireHandler); ok {
		return wh
	}
	return copyingHandler{h}
}

type copyingHandler struct{ h Handler }

func (a copyingHandler) AppendHandleWire(dst, query []byte) ([]byte, error) {
	resp, err := a.h.HandleWire(query)
	if err != nil {
		return dst, err
	}
	return append(dst, resp...), nil
}
