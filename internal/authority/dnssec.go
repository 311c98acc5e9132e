package authority

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"dnsnoise/internal/dnsmsg"
)

// DNSSEC algorithm number for Ed25519 (RFC 8080).
const algEd25519 = 15

// Signer signs RRsets for one zone with an Ed25519 key. Signing real bytes
// (rather than stubbing a cost) makes the Section VI-B experiment honest:
// the validating resolver performs a genuine Ed25519 verification per
// never-reused disposable answer.
type Signer struct {
	zone   string
	priv   ed25519.PrivateKey
	pub    ed25519.PublicKey
	keyTag uint16
}

// NewSigner creates a signer for zone, drawing key material from rand
// (pass crypto/rand.Reader in production, a seeded reader in simulations).
func NewSigner(zone string, rand io.Reader) (*Signer, error) {
	pub, priv, err := ed25519.GenerateKey(rand)
	if err != nil {
		return nil, fmt.Errorf("generate zone key: %w", err)
	}
	sum := sha256.Sum256(pub)
	return &Signer{
		zone:   zone,
		priv:   priv,
		pub:    pub,
		keyTag: binary.BigEndian.Uint16(sum[:2]),
	}, nil
}

// DNSKEY returns the zone's public-key record.
func (s *Signer) DNSKEY() dnsmsg.RR {
	return dnsmsg.RR{
		Name:  s.zone,
		Type:  dnsmsg.TypeDNSKEY,
		Class: dnsmsg.ClassIN,
		TTL:   3600,
		RData: dnsmsg.Text(fmt.Sprintf("257 3 %d %s", algEd25519, hex.EncodeToString(s.pub))),
	}
}

// Sign produces an RRSIG covering rrset. All records in the set must share
// owner name and type; the canonical signing input is the sorted set of
// "name|type|ttl|rdata" lines, mirroring RFC 4034 canonical form closely
// enough for a correct verify-what-you-signed contract.
func (s *Signer) Sign(rrset []dnsmsg.RR) (dnsmsg.RR, error) {
	if len(rrset) == 0 {
		return dnsmsg.RR{}, fmt.Errorf("authority: empty rrset")
	}
	owner := rrset[0].Name
	for _, rr := range rrset[1:] {
		if rr.Name != owner {
			return dnsmsg.RR{}, fmt.Errorf("authority: mixed rrset (%s vs %s)", owner, rr.Name)
		}
	}
	return s.signAs(owner, rrset)
}

// signAs is Sign for a non-empty RRset named owner whatever its records'
// Names say: the records a synthesizer or a wildcard made for a question.
func (s *Signer) signAs(owner string, rrset []dnsmsg.RR) (dnsmsg.RR, error) {
	typ, ttl := rrset[0].Type, rrset[0].TTL
	for _, rr := range rrset[1:] {
		if rr.Type != typ {
			return dnsmsg.RR{}, fmt.Errorf("authority: mixed rrset (%v vs %v)", typ, rr.Type)
		}
	}
	msg := canonicalRRSetBytes(owner, rrset)
	sig := ed25519.Sign(s.priv, msg)
	return dnsmsg.RR{
		Name:  owner,
		Type:  dnsmsg.TypeRRSIG,
		Class: dnsmsg.ClassIN,
		TTL:   ttl,
		RData: dnsmsg.Text(fmt.Sprintf("%s %d %d %d %s sig=%s keytag=%d",
			typ, algEd25519, strings.Count(owner, ".")+1, ttl, s.zone,
			hex.EncodeToString(sig), s.keyTag)),
	}, nil
}

// Verify checks an RRSIG against its covered RRset using pub (the DNSKEY
// public key). It returns nil when the signature is valid.
func Verify(pub ed25519.PublicKey, rrsig dnsmsg.RR, rrset []dnsmsg.RR) error {
	if rrsig.Type != dnsmsg.TypeRRSIG {
		return fmt.Errorf("authority: not an RRSIG: %v", rrsig.Type)
	}
	sig, err := parseRRSIGSignature(rrsig.RData.Text())
	if err != nil {
		return err
	}
	msg := canonicalRRSetBytes("", rrset)
	if !ed25519.Verify(pub, msg, sig) {
		return fmt.Errorf("authority: signature verification failed for %s", rrsig.Name)
	}
	return nil
}

// PublicKeyFromDNSKEY extracts the Ed25519 public key from a DNSKEY record.
func PublicKeyFromDNSKEY(rr dnsmsg.RR) (ed25519.PublicKey, error) {
	if rr.Type != dnsmsg.TypeDNSKEY {
		return nil, fmt.Errorf("authority: not a DNSKEY: %v", rr.Type)
	}
	fields := strings.Fields(rr.RData.Text())
	if len(fields) != 4 {
		return nil, fmt.Errorf("authority: malformed DNSKEY rdata %q", rr.RData.Text())
	}
	alg, err := strconv.Atoi(fields[2])
	if err != nil || alg != algEd25519 {
		return nil, fmt.Errorf("authority: unsupported DNSKEY algorithm %q", fields[2])
	}
	key, err := hex.DecodeString(fields[3])
	if err != nil {
		return nil, fmt.Errorf("authority: DNSKEY key material: %w", err)
	}
	if len(key) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("authority: DNSKEY key size %d", len(key))
	}
	return ed25519.PublicKey(key), nil
}

func parseRRSIGSignature(rdata string) ([]byte, error) {
	for _, f := range strings.Fields(rdata) {
		if hexSig, ok := strings.CutPrefix(f, "sig="); ok {
			sig, err := hex.DecodeString(hexSig)
			if err != nil {
				return nil, fmt.Errorf("authority: RRSIG signature: %w", err)
			}
			return sig, nil
		}
	}
	return nil, fmt.Errorf("authority: RRSIG rdata missing sig field")
}

// canonicalRRSetBytes serializes an RRset into a deterministic byte string
// for signing: records sorted by rdata, one "name|type|ttl|rdata" line each.
// A non-empty owner names every record in place of its own Name.
func canonicalRRSetBytes(owner string, rrset []dnsmsg.RR) []byte {
	lines := make([]string, len(rrset))
	for i, rr := range rrset {
		name := rr.Name
		if owner != "" {
			name = owner
		}
		lines[i] = fmt.Sprintf("%s|%s|%d|%s", strings.ToLower(name), rr.Type, rr.TTL, rr.RData.Format(rr.Type))
	}
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n"))
}
