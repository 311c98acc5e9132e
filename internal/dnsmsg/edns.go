package dnsmsg

import "encoding/binary"

// TypeOPT is the EDNS0 pseudo-RR type (RFC 6891). The codec does not build
// or interpret OPT records — the simulator's own messages never carry them —
// but wire-level scanners need to recognise the type when real tooling
// (dig, kdig) sends EDNS queries at the UDP front door.
const TypeOPT Type = 41

// headerLen is the fixed DNS message header size.
const headerLen = 12

// skipQuestions walks the question section by the decoder's rules,
// spelling nothing, and leaves d just past it.
func (d *decoder) skipQuestions() error {
	for i := int(binary.BigEndian.Uint16(d.data[offQDCount:])); i > 0; i-- {
		if _, err := d.question(); err != nil {
			return err
		}
	}
	return nil
}

// QuestionSectionEnd returns the offset just past the question section of a
// wire message, or -1 when the message is truncated or malformed. It walks
// the section by the decoder's rules without spelling a name and never
// allocates, so the UDP serve path can use it per packet.
func QuestionSectionEnd(msg []byte) int {
	if len(msg) < headerLen {
		return -1
	}
	d := decoder{data: msg, pos: headerLen, skip: true}
	if d.skipQuestions() != nil {
		return -1
	}
	return d.pos
}

// EDNSUDPSize scans msg's additional section for an EDNS0 OPT pseudo-RR and
// returns its advertised UDP payload size (the OPT record's class field,
// RFC 6891 §6.1.2). The second result is false when the message carries no
// OPT record or the decoder rejects a record before it; a message with no
// additional record is not walked at all. Like QuestionSectionEnd it reads
// the wire without allocating, so the serve path can derive a truncation
// budget from every query.
func EDNSUDPSize(msg []byte) (uint16, bool) {
	if len(msg) < headerLen || binary.BigEndian.Uint16(msg[offARCount:]) == 0 {
		return 0, false
	}
	d := decoder{data: msg, pos: headerLen, skip: true}
	if d.skipQuestions() != nil {
		return 0, false
	}
	if _, err := d.section(nil, offANCount); err != nil {
		return 0, false
	}
	if _, err := d.section(nil, offNSCount); err != nil {
		return 0, false
	}
	for i := int(binary.BigEndian.Uint16(msg[offARCount:])); i > 0; i-- {
		rr, err := d.rr()
		if err != nil {
			return 0, false
		}
		if rr.Type == TypeOPT {
			return uint16(rr.Class), true
		}
	}
	return 0, false
}
